import numpy as np
import pytest

from dvrcircuits.circuits import CircuitSpec
from dvrcircuits.dvr import DvrBasis, DvrKind, Spacing
from dvrcircuits.errors import ConfigError
from dvrcircuits.ho import LengthScale
from dvrcircuits.spectra import DvrRep, HoRep, assemble, eigensolve
from dvrcircuits.states import (
    ShiftSpec,
    StateVector,
    apply_shift,
    decompose,
    expectation,
    flux_sweep,
    shift_operator,
)
from oracles import flux_sweep_by_reassembly, shift_operator_by_powers

FLUXONIUM = CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.5)
PHASE_REP = DvrRep(DvrKind.TRADITIONAL_PHASE, Spacing(5, 32, pi=True))
TRUNC_REP = DvrRep(DvrKind.TRUNCATED_PHASE, Spacing(5, 32, pi=True))


def _basis(rep, dim):
    return DvrBasis(rep.kind, rep.spacing, (dim - 1) // 2)


def _ground(rep, dim, k=1):
    spectrum = eigensolve(assemble(FLUXONIUM, rep, dim), k)
    return spectrum, StateVector.from_eigenvector(spectrum, 0)


# ---------------------------------------------------------------------------
# decompositions


def test_decompose_is_squared_magnitudes():
    spectrum, _ = _ground(PHASE_REP, 41, k=3)
    table = decompose(spectrum, 3)
    assert np.array_equal(table, np.abs(spectrum.eigvectors[:, :3].T) ** 2)


def test_decompose_rows_sum_to_one():
    spectrum, _ = _ground(TRUNC_REP, 61, k=5)
    table = decompose(spectrum, 5)
    assert np.abs(table.sum(axis=1) - 1.0).max() < 1e-10


def test_decompose_floor():
    spectrum, _ = _ground(PHASE_REP, 41, k=1)
    table = decompose(spectrum, 1, floor=1e-16)
    assert table.min() >= 1e-16


def test_decompose_level_bound():
    spectrum, _ = _ground(PHASE_REP, 21, k=2)
    with pytest.raises(ConfigError):
        decompose(spectrum, 22)


def test_ho_decomposition_parity_structure():
    # At A = 1/2 fluxonium eigenstates have definite parity: even eigenstates
    # have no odd HO components and vice versa.
    spectrum = eigensolve(assemble(FLUXONIUM, HoRep(LengthScale.LC), 61), 4)
    table = decompose(spectrum, 4)
    odd = np.arange(61) % 2 == 1
    for level in range(4):
        weight_odd = table[level, odd].sum()
        weight_even = table[level, ~odd].sum()
        minority = min(weight_odd, weight_even)
        assert minority < 1e-20


# ---------------------------------------------------------------------------
# shift operators


def test_shift_spec_validation():
    with pytest.raises(ConfigError):
        ShiftSpec(-1)
    with pytest.raises(ConfigError):
        ShiftSpec(2, direction=0)


def test_truncated_shift_unitary_every_beta():
    basis = _basis(TRUNC_REP, 11)
    for beta in (0, 1, 5, 11, 14):
        u = shift_operator(basis, ShiftSpec(beta)).entries
        assert np.abs(u @ u.conj().T - np.eye(11)).max() == 0.0


def test_truncated_full_cycle_is_identity():
    basis = _basis(TRUNC_REP, 11)
    u = shift_operator(basis, ShiftSpec(11)).entries
    assert np.array_equal(u, np.eye(11))


def test_traditional_full_shift_is_zero():
    basis = _basis(PHASE_REP, 11)
    u = shift_operator(basis, ShiftSpec(11)).entries
    assert np.array_equal(u, np.zeros((11, 11)))


@pytest.mark.parametrize("rep", [PHASE_REP, TRUNC_REP], ids=lambda rep: rep.kind.value)
@pytest.mark.parametrize("direction", [+1, -1])
@pytest.mark.parametrize("beta", [0, 1, 5, 11, 14])  # 11 = d, 14 = d + 3
def test_shift_operator_equals_the_matrix_power(rep, direction, beta):
    basis = _basis(rep, 11)
    shift = ShiftSpec(beta, direction)
    u = shift_operator(basis, shift).entries
    expected = shift_operator_by_powers(basis, shift).entries
    assert u.dtype == expected.dtype
    assert np.array_equal(u, expected)


def test_shift_requires_phase_basis():
    charge = DvrBasis(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 4), 5)
    with pytest.raises(ConfigError):
        shift_operator(charge, ShiftSpec(1))


def test_identity_shift_keeps_state():
    _, state = _ground(PHASE_REP, 41)
    shifted, norm = apply_shift(state, _basis(PHASE_REP, 41), ShiftSpec(0))
    assert np.array_equal(shifted.coefficients, state.coefficients)
    assert np.isclose(norm, 1.0)


def test_fast_path_equals_matrix_path():
    for rep in (PHASE_REP, TRUNC_REP):
        basis = _basis(rep, 41)
        _, state = _ground(rep, 41)
        for beta in (1, 4, 13):
            for direction in (+1, -1):
                shift = ShiftSpec(beta, direction)
                fast, _ = apply_shift(state, basis, shift)
                mat = shift_operator(basis, shift).entries @ state.coefficients
                assert np.abs(fast.coefficients - mat).max() <= 1e-14


def test_forward_backward_restores_interior_state():
    # embed a 41-point ground state in the middle of an 81-point grid so the
    # outer 20 sites on each side carry exactly zero weight; a shift by 5 then
    # evicts nothing and the round trip is lossless
    basis = _basis(PHASE_REP, 81)
    _, inner = _ground(PHASE_REP, 41)
    coefficients = np.zeros(81, dtype=complex)
    coefficients[20:61] = inner.coefficients
    state = StateVector(coefficients)
    fwd, _ = apply_shift(state, basis, ShiftSpec(5, +1))
    back, norm = apply_shift(fwd, basis, ShiftSpec(5, -1))
    assert np.abs(back.coefficients - state.coefficients).max() < 1e-13
    assert abs(norm - 1.0) < 1e-12


def test_norm_drops_when_weight_leaves_traditional_grid():
    basis = _basis(PHASE_REP, 21)
    _, state = _ground(PHASE_REP, 21)
    _, norm = apply_shift(state, basis, ShiftSpec(15))
    assert norm < 1.0


def test_two_pi_shift_raises_energy():
    # Shifting the half-flux ground state by phi = 2*pi costs energy.
    rep = DvrRep(DvrKind.TRADITIONAL_PHASE, Spacing(1, 8, pi=True))
    dim = 129
    basis = _basis(rep, dim)
    beta = 16  # 16 * pi/8 = 2*pi
    assert np.isclose(beta * basis.spacing_value, 2.0 * np.pi)
    h = assemble(FLUXONIUM, rep, dim)
    _, state = _ground(rep, dim)
    shifted, _ = apply_shift(state, basis, ShiftSpec(beta))
    e0 = expectation(h, state)
    renorm = StateVector(shifted.coefficients / np.linalg.norm(shifted.coefficients))
    assert expectation(h, renorm) > e0


def test_expectation_dimension_mismatch():
    h = assemble(FLUXONIUM, PHASE_REP, 21)
    _, state = _ground(PHASE_REP, 41)
    with pytest.raises(ConfigError):
        expectation(h, state)


# ---------------------------------------------------------------------------
# flux sweeps


def test_flux_sweep_rows_and_reference_point():
    a_values = np.linspace(0.0, 1.0, 11)
    rows = flux_sweep(FLUXONIUM, PHASE_REP, 41, betas=(0, 2), a_values=a_values)
    assert len(rows) == 22
    spacing = _basis(PHASE_REP, 41).spacing_value
    phis = sorted({row[1] for row in rows})
    assert np.allclose(phis, [0.0, 2 * spacing])
    # at A = 1/2 the unshifted row reproduces the ground energy
    e_ref = eigensolve(assemble(FLUXONIUM, PHASE_REP, 41), 1).energies[0]
    row = next(r for r in rows if np.isclose(r[0], 0.5) and r[1] == 0.0)
    assert abs(row[2] - e_ref) < 1e-10


def test_flux_sweep_rejects_wrong_family():
    with pytest.raises(ConfigError):
        flux_sweep(CircuitSpec.lc(1.0, 1.0), PHASE_REP, 21, betas=(0,))


def test_flux_sweep_rediagonalize_follows_the_ground_state():
    a_values = np.array([0.3, 0.5])
    fixed = flux_sweep(FLUXONIUM, PHASE_REP, 41, betas=(0,), a_values=a_values)
    rediag = flux_sweep(FLUXONIUM, PHASE_REP, 41, betas=(0,), a_values=a_values, rediagonalize=True)
    for a, held, fresh in zip(a_values, fixed, rediag):
        spec_a = CircuitSpec.fluxonium(FLUXONIUM.E_C, FLUXONIUM.E_L, FLUXONIUM.E_J, a)
        e_ground = eigensolve(assemble(spec_a, PHASE_REP, 41), 1).energies[0]
        assert abs(fresh[2] - e_ground) < 1e-10
        # the state held from A = 1/2 is no lower than the ground state at A
        assert held[2] >= e_ground - 1e-10
    # at A = spec.A both paths prepare the same ground state
    assert abs(rediag[1][2] - fixed[1][2]) < 1e-10
    assert abs(fixed[0][2] - rediag[0][2]) > 1e-6


# A sweep on both phase kinds at three spacings (a fine, a medium and a coarse
# grid), for a circuit at half flux and one off it.
SWEEP_REPS = [
    DvrRep(kind, spacing)
    for kind in (DvrKind.TRADITIONAL_PHASE, DvrKind.TRUNCATED_PHASE)
    for spacing in (Spacing(1, 64, pi=True), Spacing(5, 32, pi=True), Spacing(3, 1, pi=True))
]
SWEEP_CIRCUITS = [FLUXONIUM, CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.37)]
SWEEP_BETAS = (0, 2, 13)
SWEEP_A = np.linspace(0.0, 1.0, 21)


@pytest.mark.parametrize("rep", SWEEP_REPS, ids=lambda rep: rep.label)
@pytest.mark.parametrize("dim", [41, 301])
@pytest.mark.parametrize("direction", [+1, -1])
@pytest.mark.parametrize("spec", SWEEP_CIRCUITS, ids=lambda spec: f"A={spec.A}")
def test_held_flux_sweep_matches_reassembly(spec, rep, dim, direction):
    # the held state's rows come from grid populations; the oracle rebuilds
    # H(A) and sin(theta + 2*pi*A) as dense matrices at every A
    eps = np.finfo(float).eps
    rows = flux_sweep(spec, rep, dim, SWEEP_BETAS, direction, a_values=SWEEP_A)
    expected = flux_sweep_by_reassembly(spec, rep, dim, SWEEP_BETAS, direction, a_values=SWEEP_A)
    assert len(rows) == len(expected) == SWEEP_A.size * len(SWEEP_BETAS)
    for row, ref in zip(rows, expected):
        assert row[:2] == ref[:2]
        spec_a = CircuitSpec.fluxonium(spec.E_C, spec.E_L, spec.E_J, row[0])
        h_max = np.abs(assemble(spec_a, rep, dim).entries).max()
        assert abs(row[2] - ref[2]) <= 4 * eps * h_max
        assert abs(row[3] - ref[3]) <= 4 * eps


def test_held_flux_sweep_covers_a_state_pushed_off_the_grid():
    # beta = 13 on the 41-point pi/64 traditional grid evicts weight, so one
    # of the sweeps above holds a state of norm below one
    rep, dim = SWEEP_REPS[0], 41
    assert rep.kind is DvrKind.TRADITIONAL_PHASE and rep.spacing == Spacing(1, 64, pi=True)
    _, state = _ground(rep, dim)
    _, norm = apply_shift(state, _basis(rep, dim), ShiftSpec(13))
    assert norm < 0.99


@pytest.mark.parametrize("rep", [SWEEP_REPS[1], SWEEP_REPS[4]], ids=lambda rep: rep.label)
@pytest.mark.parametrize("direction", [+1, -1])
@pytest.mark.parametrize("spec", SWEEP_CIRCUITS, ids=lambda spec: f"A={spec.A}")
def test_rediagonalized_flux_sweep_equals_reassembly(spec, rep, direction):
    a_values = np.linspace(0.0, 1.0, 11)
    rows = flux_sweep(spec, rep, 41, SWEEP_BETAS, direction, a_values=a_values, rediagonalize=True)
    expected = flux_sweep_by_reassembly(spec, rep, 41, SWEEP_BETAS, direction, a_values=a_values, rediagonalize=True)
    assert rows == expected
