import json
import math
from fractions import Fraction

import numpy as np
import pytest

from dvrcircuits.circuits import CircuitSpec
from dvrcircuits.cli import main
from dvrcircuits.errors import ConfigError
from dvrcircuits.fdm import (
    Boundary,
    FdGrid,
    fd_coefficients,
    fd_hamiltonian,
    second_derivative_matrix,
)
from oracles import fd_hamiltonian_by_terms, second_derivative_matrix_by_offsets

LC = CircuitSpec.lc(1.0, 1.0)


def test_three_point_stencil():
    assert np.allclose(fd_coefficients(1), [1.0, -2.0, 1.0])


def test_five_point_stencil():
    expect = [-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0]
    assert np.allclose(fd_coefficients(2), expect)


def test_stencil_annihilates_constants_and_linears():
    for order in range(1, 7):
        c = fd_coefficients(order)
        nodes = np.arange(-order, order + 1, dtype=float)
        assert abs(c.sum()) < 1e-10
        assert abs(c @ nodes) < 1e-10
        assert np.allclose(c, c[::-1])  # symmetric


def test_stencil_exact_on_monomials():
    # Order-M stencils reproduce d^2/dx^2 x^p exactly for p <= 2M+1.
    for order in (1, 2, 3, 4):
        c = fd_coefficients(order)
        nodes = np.arange(-order, order + 1, dtype=float)
        x0 = 1.5
        for p in range(2 * order + 2):
            got = c @ (x0 + nodes) ** p
            expect = p * (p - 1) * x0 ** (p - 2) if p >= 2 else 0.0
            assert abs(got - expect) <= 1e-9 * max(abs(expect), 1.0)


def test_stencil_is_the_exact_stencil_rounded_once():
    for M in range(1, 61):
        side = [
            Fraction(2 * (-1) ** (k + 1) * math.factorial(M) ** 2, k * k * math.factorial(M - k) * math.factorial(M + k))
            for k in range(1, M + 1)
        ]
        centre = -2 * sum(Fraction(1, k * k) for k in range(1, M + 1))
        # the taps differentiate every even power up to 2M exactly (odd powers
        # by symmetry), which defines the 2M+1-point stencil
        for q in range(M + 1):
            moment = 2 * sum(c * k ** (2 * q) for k, c in enumerate(side, 1)) + (centre if q == 0 else 0)
            assert moment == (2 if q == 1 else 0), (M, q)
        exact = [float(c) for c in side]
        assert fd_coefficients(M).tolist() == [*exact[::-1], float(centre), *exact], M


def test_wide_stencil_tends_to_the_phase_dvr_column():
    # as M grows the stencil becomes minus the traditional phase DVR's N^2
    # column at unit spacing: 2 (-1)^(k+1) / k^2 off the centre, -pi^2/3 on it
    M = 1000
    c = fd_coefficients(M)
    for k in range(1, 6):
        assert abs(c[M + k] * k * k / 2 - (-1) ** (k + 1)) <= k * k / M
    assert abs(c[M] + math.pi ** 2 / 3) <= 4 / M


def test_metrics_run_at_a_wide_stencil(tmp_path):
    doc = {
        "circuit": {"family": "lc", "E_C": 1.0, "E_L": 1.0},
        "representations": [{"type": "fd", "spacing": 0.1, "order_M": 100}],
        "sizes": [201, 203, 205, 207, 209],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "metrics.csv").exists()


def test_grid_validation():
    with pytest.raises(ConfigError):
        FdGrid(0.0, 10)
    with pytest.raises(ConfigError, match="spacing"):
        FdGrid(10 ** 400, 3)  # an integer beyond the float range
    with pytest.raises(ConfigError):
        FdGrid(0.1, 2, order_M=3)
    with pytest.raises(ConfigError):
        FdGrid(0.1, 10, boundary=Boundary.PERIODIC)  # wrong spacing
    FdGrid(2.0 * math.pi / 21, 10, boundary=Boundary.PERIODIC)


def test_bounded_corner_is_zero():
    grid = FdGrid(0.1, 5, order_M=1)
    h = fd_hamiltonian(LC, grid).entries
    assert h[0, 10] == 0.0


def test_periodic_corner_wraps():
    n = 10
    grid = FdGrid(2.0 * math.pi / 21, n, order_M=1, boundary=Boundary.PERIODIC)
    h = fd_hamiltonian(CircuitSpec.transmon(0.2, 10.0, 0.0), grid).entries
    assert np.isclose(h[0, 2 * n], -4.0 * 0.2 / grid.spacing ** 2)


def test_second_derivative_symmetric():
    for order in (1, 2, 3):
        for boundary in Boundary:
            half = 10
            spacing = 2.0 * math.pi / 21 if boundary is Boundary.PERIODIC else 0.1
            d2 = second_derivative_matrix(FdGrid(spacing, half, order, boundary))
            assert np.abs(d2 - d2.T).max() == 0.0


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_second_derivative_matrix_matches_the_sum_over_offsets(order, boundary):
    # and so does the Hamiltonian, with each potential term as a dense diagonal
    specs = [LC, CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.37), CircuitSpec.transmon(0.2, 10.0, 0.0)]
    for half in sorted({order, order + 1, 7, 50, 299}):
        spacing = 2.0 * math.pi / (2 * half + 1) if boundary is Boundary.PERIODIC else 0.1
        grid = FdGrid(spacing, half, order, boundary)
        got = second_derivative_matrix(grid)
        assert got.tobytes() == second_derivative_matrix_by_offsets(grid).tobytes()
        for spec in specs:
            h = fd_hamiltonian(spec, grid).entries
            assert np.array_equal(h, fd_hamiltonian_by_terms(spec, grid)), (spec.family, half)


def test_lc_ground_energy_near_exact():
    grid = FdGrid(math.pi / 64, 150, order_M=1)
    energies = np.linalg.eigvalsh(fd_hamiltonian(LC, grid).entries)
    assert abs(energies[0] - math.sqrt(2.0)) < 1e-3 * math.sqrt(8.0)


def test_higher_order_strictly_improves():
    ref = math.sqrt(2.0)
    errs = []
    for order in (1, 2, 3, 4):
        # grid wide enough that the box-truncation error sits below the
        # highest-order stencil error, so the stencil order dominates
        grid = FdGrid(math.pi / 64, 250, order_M=order)
        energies = np.linalg.eigvalsh(fd_hamiltonian(LC, grid).entries)
        errs.append(abs(energies[0] - ref))
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_transmon_fd_requires_zero_offset_charge():
    grid = FdGrid(2.0 * math.pi / 21, 10, boundary=Boundary.PERIODIC)
    with pytest.raises(ConfigError, match="offset charge"):
        fd_hamiltonian(CircuitSpec.transmon(0.2, 10.0, 0.5), grid)
