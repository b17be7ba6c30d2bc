import math

import numpy as np
import pytest

from dvrcircuits.circuits import CircuitSpec
from dvrcircuits.errors import ConfigError
from dvrcircuits.ho import (
    HoBasis,
    LengthScale,
    cos_in_ho,
    ho_operators,
    length_scale,
    quadratic_operators,
)

FLUXONIUM = CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.5)


def test_length_scale_lc():
    assert np.isclose(length_scale(FLUXONIUM, LengthScale.LC), 40.0 ** 0.25)


def test_length_scale_plasma():
    expect = (math.sqrt(8.0 * 2.5 * 10.0) / 0.5) ** 0.5
    assert np.isclose(length_scale(FLUXONIUM, LengthScale.PLASMA), expect)


def test_length_scale_lc_circuit():
    assert np.isclose(length_scale(CircuitSpec.lc(1.0, 1.0), LengthScale.LC), 8.0 ** 0.25)


def test_length_scale_rejects_transmon():
    with pytest.raises(ConfigError):
        length_scale(CircuitSpec.transmon(0.2, 10.0, 0.5), LengthScale.LC)


def test_basis_validation():
    for theta0 in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            HoBasis(theta0, 10)
    with pytest.raises(ConfigError):
        HoBasis(2.5, 10, embed_dim=5)


def test_operators_tridiagonal_structure():
    theta0 = 2.5
    theta, n = ho_operators(HoBasis(theta0, 8, 1001))
    t, m = theta.entries, n.entries
    assert np.isclose(t[0, 1], theta0 / math.sqrt(2.0))
    assert np.allclose(np.diag(m), 0.0)
    # theta real symmetric, N purely imaginary off-diagonal
    assert np.allclose(t.imag, 0.0)
    assert np.allclose(m.real, 0.0)
    for mat in (t, m):
        off2 = np.triu(mat, 2)
        assert np.allclose(off2, 0.0)


def test_canonical_commutator_on_interior():
    theta, n = ho_operators(HoBasis(2.5, 50, 1001))
    comm = theta.entries @ n.entries - n.entries @ theta.entries
    interior = comm[:40, :40] - 1j * np.eye(40)
    assert np.abs(interior).max() < 1e-12


def test_quadratic_operators_free_of_edge_corruption():
    basis = HoBasis(1.7, 6, 1001)
    theta2, n2 = quadratic_operators(basis)
    big_t, big_n = ho_operators(HoBasis(1.7, 20, 1001))
    assert np.allclose(theta2.entries, (big_t.entries @ big_t.entries)[:6, :6].real)
    assert np.allclose(n2.entries, (big_n.entries @ big_n.entries)[:6, :6].real)


@pytest.mark.parametrize("scale", list(LengthScale))
@pytest.mark.parametrize("dim", [3, 31, 301, 1001])
def test_quadratic_operators_match_long_double_closed_form(scale, dim):
    theta0 = length_scale(FLUXONIUM, scale)
    theta2, n2 = quadratic_operators(HoBasis(theta0, dim, 1001))
    m = np.arange(dim, dtype=np.longdouble)
    t2 = np.longdouble(theta0) ** 2
    s = np.sqrt((m[:-2] + 1) * (m[:-2] + 2)) / 2
    for got, diag, off in ((theta2, t2 * (m + 0.5), t2 * s), (n2, (m + 0.5) / t2, -s / t2)):
        want = np.diag(diag) + np.diag(off, 2) + np.diag(off, -2)
        assert got.entries.dtype == np.float64
        assert np.abs(got.entries - want).max() <= np.finfo(float).eps * np.abs(want).max()


def test_cos_dim1_analytic_oracle():
    # <0| cos(theta) |0> = exp(-theta0^2 / 4), the Gaussian characteristic
    # function of the oscillator ground state.
    for theta0 in (0.8, 1.68179, 2.51487):
        op = cos_in_ho(HoBasis(theta0, 1, 1001), 0.0)
        assert abs(op.entries[0, 0] - math.exp(-theta0 ** 2 / 4.0)) < 1e-10


def test_cos_half_flux_negates():
    basis = HoBasis(2.5, 12, 1001)
    a = cos_in_ho(basis, 0.0).entries
    b = cos_in_ho(basis, 0.5).entries
    assert np.abs(a + b).max() < 1e-12


def test_cos_hermitian_and_bounded():
    op = cos_in_ho(HoBasis(2.5, 100, 1001), 0.3).entries
    assert np.abs(op - op.conj().T).max() < 1e-12
    assert np.abs(np.linalg.eigvalsh(op)).max() <= 1.0 + 1e-10


def test_cached_cos_cannot_be_corrupted_by_callers():
    basis = HoBasis(2.5, 12, 1001)
    before = float(cos_in_ho(basis, 0.0).entries[0, 0])
    with pytest.raises(ValueError):
        cos_in_ho(basis, 0.0).entries[0, 0] = 99.0
    assert cos_in_ho(basis, 0.0).entries[0, 0] == before


def test_cos_truncation_insensitive():
    dim = 40
    small = cos_in_ho(HoBasis(2.5, dim, dim + 200), 0.0).entries
    big = cos_in_ho(HoBasis(2.5, dim, 1001), 0.0).entries
    assert np.abs(small - big).max() < 1e-10


def test_fluxonium_quadratic_part_is_diagonal_ladder():
    # 4 E_C N^2 + (E_L/2) theta^2 at the LC length scale is omega_LC (m + 1/2).
    theta0 = length_scale(FLUXONIUM, LengthScale.LC)
    basis = HoBasis(theta0, 30, 1001)
    theta2, n2 = quadratic_operators(basis)
    h = 4.0 * FLUXONIUM.E_C * n2.entries + 0.5 * FLUXONIUM.E_L * theta2.entries
    omega = math.sqrt(8.0 * FLUXONIUM.E_C * FLUXONIUM.E_L)
    expect = omega * (np.arange(30) + 0.5)
    assert np.abs(h - np.diag(expect)).max() < 1e-12 * omega * 30
