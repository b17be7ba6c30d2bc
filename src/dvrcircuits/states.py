"""Eigenstate post-processing: decompositions, phase shifts, expectations.

A DVR eigenvector *is* the coefficient vector of the state over the localized
basis, so decompositions are squared magnitudes of its components.  Phase
shifts by integer multiples of the grid spacing act as index shifts: zero
filled at the boundary for the traditional phase DVR, wrapped for the
truncated one.

In a phase DVR the flux enters only through one grid diagonal,
-E_J cos(theta_alpha + 2*pi*A).  A flux sweep that holds the state therefore
costs one assembly and one ground-state solve per representation, plus O(d)
per (A, beta): the grid populations |c_alpha|^2 against cos and sin on the
grid.  A sweep that rediagonalizes re-assembles and re-solves at each A.
Every state comes from :func:`spectra.lowest_states`, which solves the two
parity blocks of a parity-even circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CircuitSpec, Family
from .dvr import DvrBasis, OperatorMatrix, grid_points, sine_in_phase
from .errors import ConfigError
from .spectra import DvrRep, Spectrum, assemble, lowest_states


@dataclass(frozen=True)
class StateVector:
    coefficients: np.ndarray

    @classmethod
    def from_eigenvector(cls, spectrum: Spectrum, level: int) -> "StateVector":
        """The level-th eigenvector; Spectrum has already checked it is unit-norm."""
        return cls(np.asarray(spectrum.eigvectors[:, level]))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))


@dataclass(frozen=True)
class ShiftSpec:
    """Phase shift phi = beta * dTheta, applied in direction +1 or -1."""

    beta: int
    direction: int = +1

    def __post_init__(self):
        if self.beta < 0:
            raise ConfigError(f"beta must be nonnegative, got {self.beta}")
        if self.direction not in (+1, -1):
            raise ConfigError(f"direction must be +1 or -1, got {self.direction}")

    def phi(self, basis: DvrBasis) -> float:
        return self.beta * basis.spacing_value


def decompose(spectrum: Spectrum, levels: int, floor: float = 0.0) -> np.ndarray:
    """|c_alpha|^2 per (level, basis index), floored for log-scale plotting."""
    if levels > spectrum.dim:
        raise ConfigError(f"cannot decompose {levels} levels of a dim-{spectrum.dim} spectrum")
    mags = np.abs(spectrum.eigvectors[:, :levels].T) ** 2
    return np.maximum(mags, floor) if floor > 0.0 else mags


def shift_operator(basis: DvrBasis, shift: ShiftSpec) -> OperatorMatrix:
    """The shift as a matrix: (U c)[alpha] = c[alpha + k], k = beta * direction,
    with alpha + k wrapped mod d on a truncated grid and U zero past the edge
    of a traditional one (U = 0 once |k| >= d)."""
    if not basis.kind.is_phase:
        raise ConfigError("phase shifts require a phase-kind DVR")
    d, k = basis.dim, shift.beta * shift.direction
    if basis.kind.is_truncated:
        return OperatorMatrix(np.roll(np.eye(d), k, axis=1))
    return OperatorMatrix(np.eye(d, k=k))


def apply_shift(state: StateVector, basis: DvrBasis, shift: ShiftSpec) -> tuple[StateVector, float]:
    """Shift a state's expansion coefficients; returns (shifted state, norm).

    Fast index-shift path, entrywise equal to shift_operator @ state.  The
    returned norm is the validity check: below one means weight was pushed
    off a traditional grid's boundary.
    """
    if not basis.kind.is_phase:
        raise ConfigError("phase shifts require a phase-kind DVR")
    c = state.coefficients
    if c.shape[0] != basis.dim:
        raise ConfigError("state dimension does not match the basis")
    k = shift.beta * shift.direction
    if basis.kind.is_truncated:
        shifted = np.roll(c, -k)
    else:
        shifted = np.zeros_like(c)
        if k >= 0:
            if k < c.shape[0]:
                shifted[: c.shape[0] - k] = c[k:]
        else:
            if -k < c.shape[0]:
                shifted[-k:] = c[:k]
    new = StateVector(shifted)
    return new, new.norm()


def expectation(op: OperatorMatrix, state: StateVector) -> float:
    """Real expectation value <state| op |state>."""
    c = state.coefficients
    if op.dim != c.shape[0]:
        raise ConfigError(f"dimension mismatch: operator {op.dim}, state {c.shape[0]}")
    value = complex(np.vdot(c, op.entries @ c))
    scale = max(abs(value), 1.0)
    if abs(value.imag) > 1e-12 * scale:
        raise ConfigError(f"expectation has a non-negligible imaginary part: {value!r}")
    return value.real


def _fluxonium_at(spec: CircuitSpec, A: float) -> CircuitSpec:
    return CircuitSpec.fluxonium(spec.E_C, spec.E_L, spec.E_J, A)


def flux_sweep(
    spec: CircuitSpec,
    rep: DvrRep,
    dim: int,
    betas: tuple[int, ...],
    direction: int = +1,
    a_values: np.ndarray | None = None,
    rediagonalize: bool = False,
) -> list[tuple[float, float, float, float]]:
    """Energy and supercurrent of phase-shifted fluxonium ground states.

    The ground state is prepared at the circuit's own flux ratio (A = 1/2 in
    the reference configuration), shifted once per beta, and held fixed while
    the flux-dependent operators sweep A; rows are (A, phi, <H(A)>,
    <sin(theta + 2*pi*A)>).  The flux is one grid diagonal, so a held state's
    rows need H only at the circuit's own A_0: with grid populations
    p = |c|^2, <H(A)> is the flux-independent rest
    <H(A_0)> + E_J p.cos(theta + 2*pi*A_0) minus E_J p.cos(theta + 2*pi*A),
    and the current is p.sin(theta + 2*pi*A).
    With ``rediagonalize`` the state is re-prepared as the ground state at
    each swept A instead, which re-assembles and re-solves H(A) there.
    """
    if spec.family is not Family.FLUXONIUM:
        raise ConfigError("flux sweeps are defined for the fluxonium")
    if rep.spacing is None:
        raise ConfigError("flux sweeps need an explicit grid spacing")
    basis = DvrBasis(rep.kind, rep.spacing, (dim - 1) // 2)
    if not basis.kind.is_phase:
        raise ConfigError("flux sweeps require a phase DVR")
    if a_values is None:
        a_values = np.linspace(0.0, 1.0, 101)
    h = assemble(spec, rep, dim)  # at the circuit's own A, on either path
    shifts = [ShiftSpec(beta, direction) for beta in betas]
    rows = []
    if rediagonalize:
        for a in a_values:
            spec_a = _fluxonium_at(spec, float(a))
            h_a = assemble(spec_a, rep, dim)
            current_a = sine_in_phase(basis, float(a))
            base = StateVector.from_eigenvector(lowest_states(spec_a, rep, dim, 1), 0)
            for shift in shifts:
                state, _ = apply_shift(base, basis, shift)
                rows.append((float(a), shift.phi(basis), expectation(h_a, state), expectation(current_a, state)))
        return rows
    ground = StateVector.from_eigenvector(lowest_states(spec, rep, dim, 1), 0)
    theta = grid_points(basis)
    # the same grid values _dvr_terms puts on the diagonal of H
    cos_own = np.cos(theta + 2.0 * np.pi * spec.A)
    held = []
    for shift in shifts:
        state, _ = apply_shift(ground, basis, shift)
        p = np.abs(state.coefficients) ** 2
        held.append((shift.phi(basis), p, expectation(h, state) + spec.E_J * (p @ cos_own)))
    for a in a_values:
        arg = theta + 2.0 * np.pi * float(a)
        cos_a, sin_a = np.cos(arg), np.sin(arg)
        for phi, p, rest in held:
            rows.append((float(a), phi, float(rest - spec.E_J * (p @ cos_a)), float(p @ sin_a)))
    return rows
