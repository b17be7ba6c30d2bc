import json
import math
import random

import conftest
import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from dvrcircuits.circuits import CircuitSpec
from dvrcircuits.dvr import DvrBasis, DvrKind, Spacing
from dvrcircuits.errors import ConfigError, IncompatibleRepresentationError, NumericalError
from dvrcircuits.fdm import Boundary
from dvrcircuits import ho
from dvrcircuits.ho import LengthScale
from dvrcircuits.dvr import OperatorMatrix
from dvrcircuits import spectra
from dvrcircuits.cli import main
from dvrcircuits.convergence import default_sizes, sweep, sweep_levels
from dvrcircuits.presets import (
    CHARGE_LIMIT,
    FLUXONIUM_CIRCUIT,
    LC_CIRCUIT,
    TRANSMON_LIMIT,
    fluxonium_representations,
    lc_representations,
    transmon_representations,
)
from dvrcircuits.spectra import (
    FLUXONIUM_ORACLE_DIM,
    TRANSMON_ORACLE_LEVELS,
    DvrRep,
    FdRep,
    HoRep,
    Spectrum,
    _block_solver,
    _bounded_below,
    _certificate_margin,
    _blocks,
    _ho_parity_blocks,
    _oracle,
    _solver_matrix,
    assemble,
    charge_basis,
    check_compatible,
    concrete_dvr_basis,
    eigensolve,
    eigenvalues,
    lowest_states,
    nested_start,
    parity_even,
    reference_energy,
    size_solver,
    splits_by_parity,
)
from oracles import dvr_hamiltonian_by_terms, eigenvalues_by_size_merging_blocks, ho_hamiltonian_dense

LC = CircuitSpec.lc(1.0, 1.0)
FLUXONIUM = CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.5)
TRANSMON = CircuitSpec.transmon(0.2, 10.0, 0.5)
CHARGE_LIMIT = CircuitSpec.transmon(5.0, 5.0, 0.5)

ALL_DVR_REPS = [
    DvrRep(DvrKind.TRADITIONAL_PHASE, Spacing(5, 32, pi=True)),
    DvrRep(DvrKind.TRUNCATED_PHASE, Spacing(5, 32, pi=True)),
    DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 5)),
    DvrRep(DvrKind.TRUNCATED_CHARGE, Spacing(1, 5)),
]


# ---------------------------------------------------------------------------
# compatibility


def test_transmon_rejects_aperiodic_representations():
    for rep in (
        DvrRep(DvrKind.TRADITIONAL_PHASE, Spacing(1, 8, pi=True)),
        DvrRep(DvrKind.TRUNCATED_CHARGE, Spacing(1, 2)),
        DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 2)),
        HoRep(LengthScale.LC),
        FdRep(0.1, 1, Boundary.BOUNDED),
    ):
        with pytest.raises(IncompatibleRepresentationError, match="periodic"):
            check_compatible(TRANSMON, rep)


def test_transmon_accepts_periodic_representations():
    check_compatible(TRANSMON, charge_basis())
    check_compatible(TRANSMON, DvrRep(DvrKind.TRUNCATED_PHASE, None))
    check_compatible(TRANSMON, FdRep(None, 1, Boundary.PERIODIC))


def test_nonperiodic_circuits_reject_periodic_fd():
    with pytest.raises(IncompatibleRepresentationError):
        check_compatible(LC, FdRep(None, 1, Boundary.PERIODIC))
    with pytest.raises(ConfigError):
        check_compatible(FLUXONIUM, DvrRep(DvrKind.TRUNCATED_PHASE, None))


def test_concrete_basis_size_dependent_spacing():
    basis = concrete_dvr_basis(DvrRep(DvrKind.TRUNCATED_PHASE, None), 23)
    assert basis.spacing == Spacing(2, 23, pi=True)
    # the implied conjugate (charge) spacing is exactly dN = 1
    assert np.isclose(basis.conjugate_spacing, 1.0)
    with pytest.raises(ConfigError):
        concrete_dvr_basis(DvrRep(DvrKind.TRUNCATED_PHASE, None), 22)


# ---------------------------------------------------------------------------
# assembly


def test_charge_basis_transmon_is_tridiagonal():
    h = assemble(TRANSMON, charge_basis(), 23).entries
    alphas = np.arange(-11, 12)
    assert np.allclose(np.diag(h), 4.0 * 0.2 * (alphas - 0.5) ** 2)
    assert np.allclose(np.diag(h, 1), -10.0 / 2.0)
    assert np.allclose(np.triu(h, 2), 0.0)


def test_lc_traditional_charge_diag_entries():
    h = assemble(LC, DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 4)), 3).entries
    theta_max = 4.0 * math.pi
    expect = 4.0 * np.array([0.25, 0.0, 0.25]) ** 2 + 0.5 * theta_max ** 2 / 3.0
    assert np.allclose(np.diag(h).real, expect)
    assert np.abs(h - h.conj().T).max() < 1e-13 * np.abs(h).max()


def test_transmon_truncated_phase_kinetic_is_dft_diagonalized():
    d = 11
    rep = DvrRep(DvrKind.TRUNCATED_PHASE, None)
    h = assemble(TRANSMON, rep, d).entries
    m = (d - 1) // 2
    n = np.arange(-m, m + 1)
    basis = concrete_dvr_basis(rep, d)
    theta = n * basis.spacing_value
    # direct reconstruction: F^dag diag(4 E_C (n - N_g)^2) F with the centered
    # unitary DFT, plus the diagonal cosine term
    phases = np.exp(-2j * np.pi * np.outer(n, n) / d)
    kin = (phases * (4.0 * 0.2 * (n - 0.5) ** 2)[None, :]) @ phases.conj().T / d
    expect = kin + np.diag(-10.0 * np.cos(theta))
    assert np.abs(h - expect).max() < 1e-12


def test_assembled_hamiltonians_hermitian():
    for spec, reps in [
        (LC, ALL_DVR_REPS + [FdRep(math.pi / 64, 2, Boundary.BOUNDED)]),
        (FLUXONIUM, ALL_DVR_REPS + [HoRep(LengthScale.LC), HoRep(LengthScale.PLASMA)]),
        (TRANSMON, [charge_basis(), DvrRep(DvrKind.TRUNCATED_PHASE, None)]),
        # finite differences only support the transmon at zero offset charge
        (CircuitSpec.transmon(0.2, 10.0, 0.0), [FdRep(None, 1, Boundary.PERIODIC)]),
    ]:
        for rep in reps:
            h = assemble(spec, rep, 21).entries
            assert np.abs(h - h.conj().T).max() < 1e-13 * max(np.abs(h).max(), 1.0)


def test_fluxonium_phase_dvr_persymmetric_at_half_flux():
    # At A = 1/2 the Hamiltonian commutes with parity, so a sweep solves it as
    # an even and an odd block built on the half grid (spectra.splits_by_parity).
    # On this grid at d = 21 the full matrix also has H[alpha, beta] =
    # H[-alpha, -beta] exactly; on most grids and sizes theta + pi rounds (up
    # to 2e-16 * max|H|), which is why the split is decided from the circuit
    # and not from a floating-point test of H.
    for kind in (DvrKind.TRADITIONAL_PHASE, DvrKind.TRUNCATED_PHASE):
        h = assemble(FLUXONIUM, DvrRep(kind, Spacing(5, 32, pi=True)), 21).entries
        assert np.array_equal(h, h[::-1, ::-1].T)


@pytest.mark.parametrize("dim", [1, 3, 21, 101, 301])
@pytest.mark.parametrize(
    "spec, reps",
    [
        (LC_CIRCUIT, lc_representations()),
        (FLUXONIUM_CIRCUIT, fluxonium_representations()),
        (CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.37), fluxonium_representations()),
        (TRANSMON_LIMIT, transmon_representations()),
        (CHARGE_LIMIT, transmon_representations()),
    ],
    ids=["lc", "fluxonium", "fluxonium-A0.37", "transmon-tl", "transmon-cl"],
)
def test_dvr_assembly_equals_the_per_term_sum(spec, reps, dim):
    # assemble builds one Toeplitz matrix and one diagonal; the oracle sums one
    # dense matrix per term from the public builders, in the same order
    for rep in reps:
        if isinstance(rep, DvrRep):
            h, expect = assemble(spec, rep, dim).entries, dvr_hamiltonian_by_terms(spec, rep, dim)
            assert h.dtype == expect.dtype and np.array_equal(h, expect), rep.label


@pytest.mark.parametrize(
    "spec, dim",
    [
        (CircuitSpec.lc(1e307, 1e307), 101),  # 4 E_C N^2 overflows at the top of the basis
        (CircuitSpec.fluxonium(1e307, 1e307, 10.0, 0.5), 101),
        (CircuitSpec.lc(1e300, 1e-300), 3),  # theta0 = inf
    ],
)
def test_ho_hamiltonian_must_be_finite(spec, dim):
    with pytest.raises(ConfigError):
        assemble(spec, HoRep(LengthScale.LC, 101), dim)


def test_ho_assembly_rejects_sizes_above_embedding():
    rep = HoRep(LengthScale.LC, embed_dim=101)
    assert assemble(FLUXONIUM, rep, 101).dim == 101
    with pytest.raises(ConfigError, match="embedding"):
        assemble(FLUXONIUM, rep, 151)
    # a sweep assembles only its largest size; it must not report a 101-state
    # result for the sizes 151 and 201
    with pytest.raises(ConfigError, match="embedding"):
        sweep(FLUXONIUM, rep, (99, 101, 151, 201))


# ---------------------------------------------------------------------------
# nesting: every size of a nested representation is a block of the largest

_odd = st.integers(1, 30).map(lambda m: 2 * m + 1)
_phase_spacing = st.builds(Spacing, st.integers(1, 9), st.integers(1, 64), st.just(True))
_charge_spacing = st.builds(Spacing, st.integers(1, 9), st.integers(1, 20))
# the fluxonium cosine in a charge DVR needs an integer 1/dN
_inverse_integer_charge_spacing = st.builds(Spacing, st.just(1), st.integers(1, 15))
_transmon = st.builds(CircuitSpec.transmon, st.floats(0.1, 5.0), st.floats(0.1, 50.0), st.floats(-1.0, 1.0))
_nested_cases = st.one_of(
    st.tuples(st.sampled_from([LC, FLUXONIUM]), st.builds(DvrRep, st.just(DvrKind.TRADITIONAL_PHASE), _phase_spacing)),
    st.tuples(st.just(LC), st.builds(DvrRep, st.just(DvrKind.TRADITIONAL_CHARGE), _charge_spacing)),
    st.tuples(st.just(FLUXONIUM),
              st.builds(DvrRep, st.just(DvrKind.TRADITIONAL_CHARGE), _inverse_integer_charge_spacing)),
    st.tuples(_transmon, st.just(charge_basis())),
    st.tuples(st.sampled_from([LC, FLUXONIUM]),
              st.builds(FdRep, st.floats(1e-3, 1.0), st.integers(1, 3), st.just(Boundary.BOUNDED))),
    st.tuples(st.just(FLUXONIUM), st.builds(HoRep, st.sampled_from(LengthScale), st.just(121))),
    st.tuples(st.just(LC), st.just(HoRep(LengthScale.LC, 121))),
)


@settings(max_examples=60, deadline=None)
@given(_nested_cases, _odd, _odd)
def test_nested_sizes_are_exact_blocks_of_the_largest(case, a, b):
    spec, rep = case
    dim, top = sorted((a, b))
    if isinstance(rep, FdRep):
        dim = max(dim, 2 * rep.order_M + 1)
        top = max(top, dim)
    start = nested_start(rep, top, dim)
    assert start == (0 if isinstance(rep, HoRep) else (top - dim) // 2)
    big = assemble(spec, rep, top).entries
    assert np.array_equal(assemble(spec, rep, dim).entries, big[start : start + dim, start : start + dim])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([DvrKind.TRUNCATED_PHASE, DvrKind.TRUNCATED_CHARGE]), st.sampled_from([LC, FLUXONIUM]),
       st.integers(1, 15), _odd, _odd)
def test_truncated_dvrs_are_not_nested(kind, spec, den, a, b):
    dim, top = sorted((a, b))
    top += 2 * (dim == top)
    rep = DvrRep(kind, Spacing(1, den, pi=kind.is_phase))
    assert nested_start(rep, top, dim) is None
    s = (top - dim) // 2
    block = assemble(spec, rep, top).entries[s : s + dim, s : s + dim]
    assert not np.array_equal(assemble(spec, rep, dim).entries, block)


def test_size_dependent_grids_are_not_nested():
    assert nested_start(DvrRep(DvrKind.TRUNCATED_PHASE, None), 21, 11) is None
    assert nested_start(FdRep(None, 1, Boundary.PERIODIC), 21, 11) is None


def test_nested_start_rejects_sizes_assemble_rejects():
    with pytest.raises(ConfigError):
        nested_start(DvrRep(DvrKind.TRADITIONAL_PHASE, Spacing(1, 4, pi=True)), 21, 10)
    with pytest.raises(ConfigError, match="stencil"):
        nested_start(FdRep(0.1, 2, Boundary.BOUNDED), 21, 3)


# ---------------------------------------------------------------------------
# parity: parity-even dense Hamiltonians are solved as an even and an odd block

_EPS = np.finfo(float).eps
_parity_cases = st.one_of(
    st.tuples(st.sampled_from([LC, FLUXONIUM]),
              st.builds(DvrRep, st.sampled_from([DvrKind.TRADITIONAL_PHASE, DvrKind.TRUNCATED_PHASE]),
                        _phase_spacing)),
    st.tuples(st.just(LC),
              st.builds(DvrRep, st.sampled_from([DvrKind.TRADITIONAL_CHARGE, DvrKind.TRUNCATED_CHARGE]),
                        _charge_spacing)),
    st.tuples(st.just(FLUXONIUM),
              st.builds(DvrRep, st.sampled_from([DvrKind.TRADITIONAL_CHARGE, DvrKind.TRUNCATED_CHARGE]),
                        _inverse_integer_charge_spacing)),
    st.tuples(st.just(FLUXONIUM), st.builds(HoRep, st.sampled_from(LengthScale), st.just(121))),
    st.tuples(st.just(LC), st.just(HoRep(LengthScale.LC, 121))),
)


def _merged_block_values(spec, rep, dim, upto):
    blocks = [b for b in _blocks(spec, rep)(dim) if b.size]
    return np.sort(np.concatenate([scipy.linalg.eigvalsh(b) for b in blocks]))[: upto + 1]


@settings(max_examples=60, deadline=None)
@given(_parity_cases, _odd, _odd)
def test_parity_split_matches_the_full_dense_solve(case, a, b):
    spec, rep = case
    dim, top = sorted((a, b))
    # the LC circuit in the HO basis is pentadiagonal and keeps its band solver
    assert splits_by_parity(spec, rep) == (spec is FLUXONIUM or not isinstance(rep, HoRep))
    h = assemble(spec, rep, dim).entries
    want = scipy.linalg.eigvalsh(h)[:5]
    tol = 64 * _EPS * np.abs(h).max()
    got = size_solver(spec, rep, top, 4)[0](dim)
    assert got.shape == want.shape and np.abs(got - want).max() <= tol
    assert np.abs(_merged_block_values(spec, rep, dim, 4) - want).max() <= tol


def test_transmon_phase_grid_splits_at_zero_offset_charge():
    spec = CircuitSpec.transmon(0.2, 10.0, 0.0)
    rep = DvrRep(DvrKind.TRUNCATED_PHASE, None)
    assert splits_by_parity(spec, rep) and not splits_by_parity(spec, charge_basis())
    sizes = (3, 9, 21, 41)
    solve, _ = size_solver(spec, rep, max(sizes), 4)
    for d in sizes:
        got = solve(d)
        h = assemble(spec, rep, d).entries
        want = scipy.linalg.eigvalsh(h)[: min(4, d - 1) + 1]
        assert np.abs(got - want).max() <= 64 * _EPS * np.abs(h).max()


@settings(max_examples=40, deadline=None)
@given(_parity_cases.filter(lambda case: nested_start(case[1], 3, 3) is not None), _odd, _odd)
def test_parity_blocks_of_each_size_lead_those_of_the_largest(case, a, b):
    spec, rep = case
    dim, top = sorted((a, b))
    for small, big in zip(_blocks(spec, rep)(dim), _blocks(spec, rep)(top)):
        n = small.shape[0]
        assert np.array_equal(small, big[:n, :n])


@pytest.mark.parametrize("spec", [LC, FLUXONIUM, CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.3)], ids=["lc", "A0.5", "A0.3"])
def test_ho_parity_blocks_are_the_parity_slices_of_the_assembled_matrix(spec):
    for scale in LengthScale if spec is not LC else [LengthScale.LC]:
        rep = HoRep(scale, 121)
        for d in (1, 2, 21, 121):
            h = ho_hamiltonian_dense(spec, rep, d)
            blocks = _ho_parity_blocks(spec, rep)(d)
            # off half-integer flux the cosine adds the block from the even states to the odd ones
            assert len(blocks) == (2 if parity_even(spec) else 3)
            even, odd = blocks[:2]
            assert np.array_equal(even, h[0::2, 0::2]) and np.array_equal(odd, h[1::2, 1::2])
            if not parity_even(spec):
                assert np.array_equal(blocks[2], assemble(spec, rep, d).entries[1::2, 0::2])


def test_ho_assembly_equals_the_dense_sum_of_its_terms():
    # assemble writes the parity blocks and, off half-integer flux, the
    # cosine's entries between the parities; the oracle sums the dense
    # pentadiagonal quadratic terms and the dense cosine
    cases = [(LC, LengthScale.LC)] + [
        (CircuitSpec.fluxonium(2.5, 0.5, 10.0, A), scale)
        for A in (0.0, 0.5, 0.37, 1.25, -0.1)
        for scale in LengthScale
    ]
    for spec, scale in cases:
        for d in (1, 2, 3, 4, 51, 300, 301, 1001):
            h = assemble(spec, HoRep(scale), d).entries
            want = ho_hamiltonian_dense(spec, HoRep(scale), d)
            assert h.dtype == want.dtype and np.array_equal(h, want), (spec.A, scale, d)


def test_parity_blocks_have_the_half_sizes():
    # _blocks gives two blocks exactly where splits_by_parity holds, and
    # otherwise H itself, from which lowest_states takes the dense solve
    bounded = ALL_DVR_REPS + [HoRep(LengthScale.LC, 121), FdRep(math.pi / 48, 1, Boundary.BOUNDED)]
    periodic = [charge_basis(), DvrRep(DvrKind.TRUNCATED_PHASE, None), FdRep(None, 1, Boundary.PERIODIC)]
    cases = [
        (LC, bounded),
        (FLUXONIUM, bounded),
        (CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.37), bounded),
        (CircuitSpec.transmon(0.2, 10.0, 0.0), periodic),
        (TRANSMON, periodic[:2]),  # finite differences take N_g = 0 only
    ]
    splits = 0
    for spec, reps in cases:
        for rep in reps:
            for d in (3, 21) if isinstance(rep, FdRep) else (1, 3, 21):
                blocks = _blocks(spec, rep)(d)
                assert len(blocks) == (2 if splits_by_parity(spec, rep) else 1)
                if len(blocks) == 1:
                    assert np.array_equal(blocks[0], assemble(spec, rep, d).entries)
                    got, want = lowest_states(spec, rep, d, min(d, 3)), eigensolve(assemble(spec, rep, d), min(d, 3))
                    assert np.array_equal(got.energies, want.energies)
                    assert np.array_equal(got.eigvectors, want.eigvectors)
                    continue
                splits += 1
                even, odd = blocks
                assert even.shape == ((d + 1) // 2,) * 2 and odd.shape == (d // 2,) * 2
                if isinstance(rep, DvrRep):  # symmetric by construction on the half grid
                    assert np.array_equal(even, even.T) and np.array_equal(odd, odd.T)
    # per size: the LC's DVRs, the fluxonium's DVRs and HO at A = 1/2, the transmon's phase grid at N_g = 0
    assert splits == 3 * (4 + 5 + 1)


def _todays_route(spec, rep, sizes, upto):
    """One gated assembly at the largest size (or one per size) and its block solver."""
    top = max(sizes)
    if nested_start(rep, top, top) is None:
        return [_block_solver(_solver_matrix(assemble(spec, rep, d).entries))(0, d, min(upto, d - 1))
                for d in sizes]
    solve = _block_solver(_solver_matrix(assemble(spec, rep, top).entries))
    return [solve(nested_start(rep, top, d), d, min(upto, d - 1)) for d in sizes]


@pytest.mark.parametrize(
    "spec, rep",
    [
        (CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.3), ALL_DVR_REPS[0]),
        (CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.3), ALL_DVR_REPS[1]),
        (CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.3), HoRep(LengthScale.LC, 121)),
        (TRANSMON, charge_basis()),
        (TRANSMON, DvrRep(DvrKind.TRUNCATED_PHASE, None)),
        (CHARGE_LIMIT, charge_basis()),
        (CHARGE_LIMIT, DvrRep(DvrKind.TRUNCATED_PHASE, None)),
        (LC, FdRep(math.pi / 48, 1, Boundary.BOUNDED)),
        (LC, FdRep(math.pi / 48, 3, Boundary.BOUNDED)),
        (LC, HoRep(LengthScale.LC, 121)),
    ],
    ids=lambda x: getattr(x, "label", None) or f"{x.family.value}",
)
def test_asymmetric_and_banded_pairs_keep_their_route(spec, rep):
    assert not splits_by_parity(spec, rep)
    sizes = (7, 21, 41, 61)
    solve, _ = size_solver(spec, rep, max(sizes), 4)
    for d, w in zip(sizes, _todays_route(spec, rep, sizes, 4)):
        assert np.array_equal(solve(d), w)


def test_parity_is_decided_from_the_circuit_alone():
    assert parity_even(LC)
    for A in (0.0, 0.5, 1.0, -0.5, 1.5, 2):
        assert parity_even(CircuitSpec.fluxonium(2.5, 0.5, 10.0, A))
    for A in (0.5 + 1e-12, 0.25, 0.3, 0.5 - 1e-16):
        assert not parity_even(CircuitSpec.fluxonium(2.5, 0.5, 10.0, A))
    assert parity_even(CircuitSpec.transmon(0.2, 10.0, 0.0))
    assert not parity_even(CircuitSpec.transmon(0.2, 10.0, 0.5))
    assert not parity_even(CircuitSpec.transmon(0.2, 10.0, 1e-300))
    near = CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.5 + 1e-12)
    assert not any(splits_by_parity(near, rep) for rep in ALL_DVR_REPS + [HoRep(LengthScale.LC)])


# ---------------------------------------------------------------------------
# eigensolver


def test_eigensolve_one_by_one():
    spectrum = eigensolve(OperatorMatrix(np.array([[3.25]])), 1)
    assert np.isclose(spectrum.energies[0], 3.25)
    assert np.isclose(abs(spectrum.eigvectors[0, 0]), 1.0)


def test_eigensolve_rejects_nonhermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NumericalError):
        _solver_matrix(bad)
    with pytest.raises(NumericalError):
        eigensolve(OperatorMatrix(bad), 1)


def test_solver_gate_rejects_a_nan_matrix():
    # a NaN defect compares false against the tolerance: the gate must not pass it
    for bad in (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[1.0, np.nan], [np.nan, 1.0]])):
        with pytest.raises(NumericalError):
            _solver_matrix(bad)


def test_solver_gate_rejects_an_infinite_matrix():
    # an inf entry makes the tolerance inf: no defect may pass against it
    for bad in (
        np.array([[1.0, 2.0], [np.inf, 1.0]]),
        np.array([[0.0, np.inf], [0.0, 0.0]]),
        np.array([[0.0, -np.inf], [-np.inf, 0.0]]),
        np.array([[1.0, 2.0j], [np.inf, 1.0]]),
    ):
        with pytest.raises(NumericalError, match="not finite"):
            eigensolve(OperatorMatrix(bad), 1)


def test_spectrum_rejects_nonfinite_energies_and_norms():
    unit = np.eye(2)
    for energies in ([np.nan, np.nan], [0.0, np.inf], [np.nan, 1.0]):
        with pytest.raises(NumericalError, match="energies"):
            Spectrum(np.array(energies), unit)
    with pytest.raises(NumericalError, match="unit-norm"):
        Spectrum(np.array([0.0, 1.0]), np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_solver_gate_drops_numerically_zero_imaginary_part():
    h = np.array([[1.0, 1e-18j], [-1e-18j, 2.0]])
    assert not np.iscomplexobj(_solver_matrix(h))
    genuine = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    assert _solver_matrix(genuine) is genuine


def test_eigensolve_residuals_backward_stable():
    h = assemble(FLUXONIUM, DvrRep(DvrKind.TRADITIONAL_PHASE, Spacing(5, 32, pi=True)), 41)
    spectrum = eigensolve(h, 5)
    scale = np.abs(h.entries).max()
    for i in range(5):
        v = spectrum.eigvectors[:, i]
        res = np.abs(h.entries @ v - spectrum.energies[i] * v).max()
        assert res < 1e-10 * scale


@pytest.mark.parametrize("dtype", [float, complex])
def test_eigensolve_equals_eigh(dtype):
    # eigensolve makes the sweeps' one LAPACK call, asking for vectors too
    rng = np.random.default_rng(5)
    for n in (1, 2, 30, 31):
        a = rng.standard_normal((n, n)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal((n, n))
        h = _solver_matrix(a + a.conj().T)
        for k in {1, min(5, n)}:
            got = eigensolve(OperatorMatrix(h), k)
            values, vectors = scipy.linalg.eigh(h, subset_by_index=(0, k - 1))
            assert np.array_equal(got.energies, values) and np.array_equal(got.eigvectors, vectors), (n, k)
            assert got.eigvectors.dtype == vectors.dtype


@pytest.mark.parametrize("dtype, top", [(float, 151), (complex, 101)])
def test_direct_lapack_call_equals_eigvalsh(dtype, top):
    # every leading and centred block of one matrix, as a nested sweep solves
    # them; a workspace sized for the whole matrix moved some values by 1e-14
    rng = np.random.default_rng(3)
    a = rng.standard_normal((top, top)).astype(dtype)
    if dtype is complex:
        a += 1j * rng.standard_normal((top, top))
    h = a + a.conj().T
    before = h.copy()
    for n in range(1, top + 1):
        for start in {0, (top - n) // 2}:
            block = h[start : start + n, start : start + n]
            for upto in (0, 4):
                k = min(upto, n - 1)
                got, want = spectra._lowest(block, k), scipy.linalg.eigvalsh(block, subset_by_index=(0, k))
                assert got.dtype == want.dtype and np.array_equal(got, want), (n, start, upto)
    assert np.array_equal(h, before)


def test_transmon_degeneracy_lifted_at_half_charge():
    spectrum = eigensolve(assemble(CHARGE_LIMIT, charge_basis(), 41), 2)
    assert spectrum.energies[1] - spectrum.energies[0] > 1e-3


def test_banded_solver_gets_exactly_the_band_storage_of_each_block(monkeypatch):
    # LAPACK does not read the padding of band storage, so a stale entry there
    # would not change an eigenvalue; pin what is handed over instead.
    rep, sizes = FdRep(math.pi / 48, 3, Boundary.BOUNDED), (7, 11, 41)
    seen = []
    real = scipy.linalg.eig_banded

    def spy(ab, **kwargs):
        seen.append(ab.copy())
        return real(ab, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig_banded", spy)
    solve, _ = size_solver(LC, rep, max(sizes), 2)
    for d in sizes:
        solve(d)
    assert len(seen) == len(sizes)
    for ab, d in zip(seen, sizes):
        h = assemble(LC, rep, d).entries
        want = np.zeros((min(3, d - 1) + 1, d))
        for k in range(want.shape[0]):
            want[k, : d - k] = np.diagonal(h, -k)
        assert np.array_equal(ab, want)


def test_lc_quarter_charge_reaches_exact_energy():
    vals = eigenvalues(LC, DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 4)), 301, 0)
    assert abs(vals[0] - math.sqrt(2.0)) < 1e-6 * math.sqrt(8.0)


# ---------------------------------------------------------------------------
# references


def test_lc_reference_closed_form():
    assert np.isclose(reference_energy(LC, 0), math.sqrt(2.0))
    assert np.isclose(reference_energy(LC, 3), math.sqrt(8.0) * 3.5)


def test_fluxonium_reference_convergence_guard():
    small = scipy.linalg.eigvalsh(assemble(FLUXONIUM, HoRep(LengthScale.LC, 801), 801).entries)
    for level in range(8):
        big = reference_energy(FLUXONIUM, level)
        assert abs(big - small[level]) < 1e-9


def test_fluxonium_reference_is_the_ho_representation_at_its_embedding():
    # The oracle solves the two parity blocks of H(1001), whose off-parity
    # entries are exactly 0 at half flux, so its exact eigenvalues are those of
    # the dense H.  Both solvers are backward stable: each returns the exact
    # eigenvalues of H + E, and by Weyl's inequality each value then moves by
    # at most ||E||_2 <= p(n) eps ||H||_2.  p(n) is taken as sqrt(n), the usual
    # growth of rounding errors accumulated over n-term sums (Higham, Accuracy
    # and Stability of Numerical Algorithms, 2nd ed., sec. 2.8), and
    # ||H||_2 = max |eigenvalue|.  The two routes differ by at most twice that.
    h = ho_hamiltonian_dense(FLUXONIUM, HoRep(LengthScale.LC), 1001)
    want = scipy.linalg.eigvalsh(h)
    got = np.array([reference_energy(FLUXONIUM, n) for n in range(1001)])
    assert np.array_equal(h[0::2, 1::2], np.zeros((501, 500)))
    bound = 2.0 * math.sqrt(1001) * _EPS * np.abs(want).max()
    assert np.abs(got - want).max() <= bound


def test_ho_sweeps_after_the_benchmark_set_up_reuse_the_embeddings(monkeypatch):
    # the benchmark builds the fluxonium oracle and one HO matrix per length
    # scale before it times a pass; a sweep or a state solve at d <= 301 must
    # then read the cached embeddings, not diagonalize theta again
    spectra._oracle.cache_clear()
    ho._embedded_blocks.cache_clear()
    reference_energy(FLUXONIUM, 0)
    for scale in LengthScale:
        assemble(FLUXONIUM, HoRep(scale), 3)
    calls = []
    real = ho.eigh_tridiagonal
    monkeypatch.setattr(ho, "eigh_tridiagonal", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    for scale in LengthScale:
        solve, _ = size_solver(FLUXONIUM, HoRep(scale), 301, 2)
        for d in (3, 151, 301):
            solve(d)
        lowest_states(FLUXONIUM, HoRep(scale), 301, 5)
    assert calls == []


def test_cached_arrays_are_read_only():
    for spec in (FLUXONIUM, TRANSMON):
        before = _oracle(spec).copy()
        with pytest.raises(ValueError):
            _oracle(spec).flat[0] = 99.0
        assert np.array_equal(_oracle(spec), before)


def test_transmon_reference_oracle_self_consistent():
    for spec in (TRANSMON, CHARGE_LIMIT):
        a = reference_energy(spec, 0)
        b = eigenvalues(spec, charge_basis(), 601, TRANSMON_ORACLE_LEVELS - 1)[0]
        assert abs(a - b) < 1e-12


@pytest.mark.parametrize("E_C, E_J", [(0.2, 10.0), (5.0, 5.0)], ids=["transmon-tl", "transmon-cl"])
@pytest.mark.parametrize("N_g", [0.0, 0.5])
def test_transmon_reference_matches_the_mathieu_characteristic_values(E_C, E_J, N_g):
    # Koch et al., PRA 76, 042319 (2007): E = E_C a(q), q = -E_J / (2 E_C), with
    # the pi-periodic characteristic values a_0, a_2, b_2, ... at N_g = 0 and
    # the pi-antiperiodic a_1, b_1, a_3, b_3, ... at N_g = 1/2
    q = -E_J / (2.0 * E_C)
    orders = range(int(2 * N_g), TRANSMON_ORACLE_LEVELS + 4, 2)
    values = [scipy.special.mathieu_a(m, q) for m in orders]
    values += [scipy.special.mathieu_b(m, q) for m in orders if m]
    want = E_C * np.sort(values)[:TRANSMON_ORACLE_LEVELS]
    got = _oracle(CircuitSpec.transmon(E_C, E_J, N_g))
    assert got.shape == want.shape
    bound = 8 * np.finfo(float).eps * np.maximum(np.abs(want), 1.0)
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize(
    "spec, held",
    [(FLUXONIUM, FLUXONIUM_ORACLE_DIM), (TRANSMON, TRANSMON_ORACLE_LEVELS)],
    ids=["fluxonium", "transmon"],
)
def test_reference_energy_rejects_a_level_the_oracle_does_not_hold(spec, held):
    assert math.isfinite(reference_energy(spec, held - 1))
    with pytest.raises(ConfigError, match=f"holds {held} levels"):
        reference_energy(spec, held)


@pytest.mark.parametrize("spec", [LC, FLUXONIUM, TRANSMON], ids=lambda spec: spec.family.value)
@pytest.mark.parametrize("level", [0.5, 1.0, True, np.float64(0.0), -1, "0"])
def test_reference_energy_rejects_a_level_that_is_not_a_nonnegative_integer(spec, level):
    # a float level gave the LC a closed form between two levels and the fluxonium an IndexError
    with pytest.raises(ConfigError, match="integer >= 0"):
        reference_energy(spec, level)


def test_reference_energy_takes_a_numpy_integer_level():
    for spec in (LC, FLUXONIUM, TRANSMON):
        assert reference_energy(spec, np.int64(2)) == reference_energy(spec, 2)


def test_transmon_spectrum_offset_charge_symmetries():
    base = eigenvalues(TRANSMON, charge_basis(), 41, 4)
    shifted = eigenvalues(CircuitSpec.transmon(0.2, 10.0, 1.5), charge_basis(), 41, 4)
    negated = eigenvalues(CircuitSpec.transmon(0.2, 10.0, -0.5), charge_basis(), 41, 4)
    assert np.abs(base - shifted).max() < 1e-12
    assert np.abs(base - negated).max() < 1e-12


# ---------------------------------------------------------------------------
# ground-level certificate: a split level-0 sweep solves one parity block and
# proves with one shifted Cholesky factorization that the other lies above

def _with_spectrum(values, seed=0):
    """A dense symmetric matrix with the given eigenvalues."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(values), len(values))))
    return (q * values) @ q.T


def test_certificate_needs_its_margin():
    a0, rest = 1.0, np.linspace(2.0, 10.0, 99)
    delta = _certificate_margin(100, np.linalg.norm(_with_spectrum(np.r_[a0, rest])), a0)
    assert 0 < delta < 1e-6
    assert _bounded_below(_with_spectrum(np.r_[a0 + 0.5, rest]), a0)
    assert _bounded_below(_with_spectrum(np.r_[a0 + 2 * delta, rest]), a0)
    assert not _bounded_below(_with_spectrum(np.r_[a0 - 1e-3, rest]), a0)
    assert not _bounded_below(_with_spectrum(np.r_[a0 - delta, rest]), a0)
    inside = _with_spectrum(np.r_[a0 + delta / 2, rest])
    assert not _bounded_below(inside, a0)
    # without the margin one factorization would pass that matrix
    assert scipy.linalg.lapack.dpotrf(inside - a0 * np.eye(100), lower=True)[1] == 0


def test_certificate_reads_the_lower_triangle():
    # as the eigensolvers do: the other triangle makes an indefinite matrix
    b = _with_spectrum(np.linspace(2.0, 10.0, 20))
    garbage = np.full((20, 20), 1e3)
    assert _bounded_below(np.tril(b) + np.triu(garbage, 1), 1.0)
    assert not _bounded_below(np.triu(b) + np.tril(garbage, -1), 1.0)


def _count_certificates(monkeypatch):
    calls = {"run": 0, "refused": 0}
    bounded_below = spectra._bounded_below

    def counting(b, a0):
        passed = bounded_below(b, a0)
        calls["run"] += 1
        calls["refused"] += not passed
        return passed

    monkeypatch.setattr(spectra, "_bounded_below", counting)
    return calls


_GROUND_SIZES, _GROUND_POOL = conftest.GROUND_SIZES, conftest.GROUND_POOL


def _pool_id(case):
    spec, rep = case
    return f"{spec.family.value}-{rep.label}"


@pytest.mark.parametrize("spec, rep", _GROUND_POOL, ids=[_pool_id(c) for c in _GROUND_POOL])
def test_ground_sweep_equals_the_two_block_merge(spec, rep, ground_sweeps):
    got = ground_sweeps[0][(spec, rep)]  # the size_solver sweep of _GROUND_SIZES at level 0
    want = eigenvalues_by_size_merging_blocks(spec, rep, _GROUND_SIZES, 0)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# the ground level changes block with the size on the fluxonium charge grids
# and in the HO basis, and lies in the odd block at every size at 3pi/4
_ORDER_CASES = [
    (FLUXONIUM_CIRCUIT, DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 5))),
    (FLUXONIUM_CIRCUIT, DvrRep(DvrKind.TRUNCATED_CHARGE, Spacing(1, 8))),
    (FLUXONIUM_CIRCUIT, HoRep(LengthScale.LC)),
    (FLUXONIUM_CIRCUIT, HoRep(LengthScale.PLASMA)),
    (FLUXONIUM_CIRCUIT, DvrRep(DvrKind.TRADITIONAL_PHASE, Spacing(3, 4, pi=True))),
    (FLUXONIUM_CIRCUIT, DvrRep(DvrKind.TRUNCATED_PHASE, Spacing(3, 4, pi=True))),
    (LC_CIRCUIT, DvrRep(DvrKind.TRADITIONAL_PHASE, Spacing(5, 32, pi=True))),
    (LC_CIRCUIT, DvrRep(DvrKind.TRUNCATED_CHARGE, Spacing(1, 4))),
]


@pytest.mark.parametrize("order", ["descending", "unsorted"])
@pytest.mark.parametrize("spec, rep", _ORDER_CASES, ids=[_pool_id(c) for c in _ORDER_CASES])
def test_ground_sweep_values_do_not_depend_on_the_size_order(spec, rep, order):
    sizes = _GROUND_SIZES[::-1] if order == "descending" else tuple(random.Random(7).sample(_GROUND_SIZES, 150))
    solve, _ = size_solver(spec, rep, max(sizes), 0)
    got = [solve(d) for d in sizes]
    want = eigenvalues_by_size_merging_blocks(spec, rep, sizes, 0)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("frac", [(3, 4), (3, 2)])
def test_odd_ground_sweep_refuses_at_most_once(monkeypatch, frac):
    # on these coarse traditional grids the odd block holds the ground level
    # at every size; the first size tries the even block first
    rep = DvrRep(DvrKind.TRADITIONAL_PHASE, Spacing(*frac, pi=True))
    for d in (3, 5, 51, 301):
        even, odd = (scipy.linalg.eigvalsh(b)[0] for b in _blocks(FLUXONIUM_CIRCUIT, rep)(d))
        assert odd < even
    calls = _count_certificates(monkeypatch)
    solve, _ = size_solver(FLUXONIUM_CIRCUIT, rep, max(_GROUND_SIZES), 0)
    for d in _GROUND_SIZES:
        solve(d)
    assert calls["run"] == len(_GROUND_SIZES) and calls["refused"] <= 1


def test_certificate_runs_only_for_split_ground_sweeps(monkeypatch, tmp_path):
    calls = _count_certificates(monkeypatch)
    sizes = default_sizes(41)
    # every level-0 size of a split pair takes one certificate
    solve, _ = size_solver(FLUXONIUM_CIRCUIT, HoRep(LengthScale.LC), max(sizes), 0)
    for d in sizes:
        solve(d)
    assert calls["run"] == len(sizes)
    calls["run"] = 0
    # upto > 0, as `levels --preset fluxonium` asks, solves both blocks
    doc = {
        "circuit": FLUXONIUM_CIRCUIT.to_dict(),
        "representations": [
            {"type": "dvr", "kind": "traditional_phase", "spacing": {"num": 3, "den": 4, "pi": True}},
            {"type": "dvr", "kind": "truncated_charge", "spacing": {"num": 1, "den": 8}},
            {"type": "ho", "scale": "plasma"},
        ],
        "sizes": [5, 7, 9, 21, 41],
        "levels": [0, 1, 2, 3, 4],
    }
    (tmp_path / "levels.json").write_text(json.dumps(doc))
    assert main(["levels", "--config", str(tmp_path / "levels.json"), "--out", str(tmp_path / "x")]) == 0
    rep = DvrRep(DvrKind.TRADITIONAL_PHASE, Spacing(5, 32, pi=True))
    for level in (1, 4):
        solve, _ = size_solver(LC_CIRCUIT, rep, max(sizes), level)
        for d in sizes:
            solve(d)
    # pairs that do not split: banded FD and LC HO, the transmon presets at N_g = 1/2
    for spec, rep in [
        (LC_CIRCUIT, FdRep(math.pi / 48, 1, Boundary.BOUNDED)),
        (LC_CIRCUIT, HoRep(LengthScale.LC)),
        (TRANSMON_LIMIT, charge_basis()),
        (TRANSMON_LIMIT, DvrRep(DvrKind.TRUNCATED_PHASE, None)),
        (CHARGE_LIMIT, DvrRep(DvrKind.TRUNCATED_PHASE, None)),
    ]:
        assert not splits_by_parity(spec, rep)
        solve, _ = size_solver(spec, rep, max(sizes), 0)
        for d in sizes:
            solve(d)
    assert calls["run"] == 0


_STATE_REPS = fluxonium_representations()


@pytest.mark.parametrize("dim", [41, 301])
@pytest.mark.parametrize("rep", _STATE_REPS, ids=[rep.label for rep in _STATE_REPS])
def test_states_from_the_parity_blocks_match_the_dense_solve(rep, dim):
    assert splits_by_parity(FLUXONIUM_CIRCUIT, rep)
    got = lowest_states(FLUXONIUM_CIRCUIT, rep, dim, 5)
    h = assemble(FLUXONIUM_CIRCUIT, rep, dim).entries
    dense = eigensolve(OperatorMatrix(h), 6)
    assert got.eigvectors.shape == (dim, 5)
    assert np.abs(got.energies - dense.energies[:5]).max() <= 64 * _EPS * np.abs(h).max()
    # Davis-Kahan: a vector moves by at most v = 64 eps ||H|| / gap, its
    # populations by 2v + v^2; the largest row sum bounds ||H||_2
    ev = dense.energies
    gaps = np.array([min(ev[n + 1] - ev[n], ev[n] - ev[n - 1] if n else np.inf) for n in range(5)])
    v = 64 * _EPS * np.abs(h).sum(axis=1).max() / gaps
    populations = np.abs(got.eigvectors) ** 2 - np.abs(dense.eigvectors[:, :5]) ** 2
    assert (np.abs(populations).max(axis=0) <= 2 * v + v * v).all()
    for c in got.eigvectors.T:
        if isinstance(rep, HoRep):  # m even or m odd only
            assert not c[1::2].any() or not c[0::2].any()
        else:  # c[M + j] = +-c[M - j], and 0 at the centre for an odd state
            m = (dim - 1) // 2
            upper, lower = c[m + 1 :], c[:m][::-1]
            assert np.array_equal(upper, lower) or (np.array_equal(upper, -lower) and c[m] == 0.0)


@pytest.mark.parametrize(
    "spec, rep",
    [
        (CircuitSpec.transmon(0.2, 10.0, 0.0), charge_basis()),
        (CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.3), DvrRep(DvrKind.TRADITIONAL_PHASE, Spacing(5, 32, pi=True))),
        (CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.3), DvrRep(DvrKind.TRUNCATED_CHARGE, Spacing(1, 8))),
        (CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.3), HoRep(LengthScale.LC)),
    ],
    ids=lambda x: getattr(x, "label", None),
)
def test_states_of_a_circuit_that_does_not_split_are_the_dense_ones(spec, rep):
    assert not splits_by_parity(spec, rep)
    got = lowest_states(spec, rep, 41, 5)
    want = eigensolve(assemble(spec, rep, 41), 5)
    assert np.array_equal(got.energies, want.energies) and np.array_equal(got.eigvectors, want.eigvectors)
