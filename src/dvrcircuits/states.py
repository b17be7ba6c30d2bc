"""Eigenstate post-processing: decompositions, phase shifts, expectations.

A state is its coefficient array: a DVR eigenvector *is* the vector of the
state's coefficients over the localized basis, and every function here takes
and returns that plain 1-D array.  Decompositions are squared magnitudes of
its components.  Phase shifts by integer multiples of the grid spacing act as
index shifts: zero filled at the boundary for the traditional phase DVR,
wrapped for the truncated one.

In a phase DVR the flux enters only through one grid diagonal,
-E_J cos(theta_alpha + 2*pi*A).  So H(A) - H(A_0) is that diagonal's change,
and a flux sweep assembles H once, at the circuit's own A_0; each row is then
O(d): the grid populations |c_alpha|^2 against cos and sin on the grid.  A
sweep that holds the state solves for it once per representation; one that
rediagonalizes re-solves at each A, and reads its rows by the same formula.
Every state comes from :func:`spectra.lowest_states`, which solves the two
parity blocks of a parity-even circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuits import CircuitSpec, Family, OperatorKind, terms
from .dvr import DvrBasis, OperatorMatrix, grid_points
from .errors import ConfigError
from .spectra import DvrRep, Spectrum, assemble, concrete_dvr_basis, lowest_states


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


def decompose(spectrum: Spectrum, floor: float = 0.0) -> np.ndarray:
    """|c_alpha|^2 per (level, basis index) of every state the spectrum holds,
    floored for log-scale plotting."""
    mags = np.abs(spectrum.eigvectors.T) ** 2
    return np.maximum(mags, floor) if floor > 0.0 else mags


def apply_shift(c: np.ndarray, basis: DvrBasis, shift: ShiftSpec) -> tuple[np.ndarray, float]:
    """Shift a state's coefficients; returns (shifted coefficients, norm).

    With k = beta * direction, shifted[alpha] = c[alpha + k], alpha + k wrapped
    mod d on a truncated grid and zero past the edge of a traditional one
    (all zero once |k| >= d).  The returned norm is the validity check: below
    one means weight was pushed off a traditional grid's boundary.
    """
    if not basis.kind.is_phase:
        raise ConfigError("phase shifts require a phase-kind DVR")
    if c.shape != (basis.dim,):
        raise ConfigError(f"a state is a 1-D array of {basis.dim} coefficients, got shape {c.shape}")
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
    return shifted, float(np.linalg.norm(shifted))


def expectation(op: OperatorMatrix, c: np.ndarray) -> float:
    """Real expectation value <c| op |c>."""
    if c.shape != (op.dim,):
        raise ConfigError(f"a state is a 1-D array of {op.dim} coefficients, got shape {c.shape}")
    value = complex(np.vdot(c, op.entries @ c))
    scale = max(abs(value), 1.0)
    if abs(value.imag) > 1e-12 * scale:
        raise ConfigError(f"expectation has a non-negligible imaginary part: {value!r}")
    return value.real


def _grid_dot(p: np.ndarray, f: np.ndarray) -> np.ndarray:
    """p . f over the last (grid) axis, broadcast over the others, as one dot
    product per result (stacked 1 x d by d x 1 products): each is the sum that
    ``p[i] @ f[j]`` of two vectors gives, bit for bit."""
    return (p[..., None, :] @ f[..., :, None])[..., 0, 0]


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
    <sin(theta + 2*pi*A)>).  The flux is one grid diagonal, so every row needs
    H only at the circuit's own A_0: with grid populations p = |c|^2 and the
    circuit's cosine term g cos(theta + 2*pi*A) (g = -E_J), <H(A)> is the
    flux-independent rest <H(A_0)> - g p.cos(theta + 2*pi*A_0) plus
    g p.cos(theta + 2*pi*A), and the current is p.sin(theta + 2*pi*A).
    With ``rediagonalize`` the state is re-prepared as the ground state at
    each swept A instead; only that solve depends on A.
    """
    if spec.family is not Family.FLUXONIUM:
        raise ConfigError("flux sweeps are defined for the fluxonium")
    if not isinstance(rep, DvrRep):
        raise ConfigError(f"flux sweeps need a sinc-DVR representation, got {rep!r}")
    if rep.spacing is None:
        raise ConfigError("flux sweeps need an explicit grid spacing")
    basis = concrete_dvr_basis(rep, dim)
    if not basis.kind.is_phase:
        raise ConfigError("flux sweeps require a phase DVR")
    a_values = np.linspace(0.0, 1.0, 101) if a_values is None else np.asarray(a_values)
    if a_values.ndim != 1 or a_values.dtype.kind not in "iuf" or not np.isfinite(a_values).all():
        raise ConfigError(f"flux values must be a 1-D array of finite numbers, got {a_values!r}")
    a_values = a_values.astype(float)
    h = assemble(spec, rep, dim)  # at the circuit's own A, on either path
    specs = [replace(spec, A=a) for a in a_values.tolist()] if rediagonalize else [spec]
    shifts = [ShiftSpec(beta, direction) for beta in betas]
    grounds = [lowest_states(s, rep, dim, 1).eigvectors[:, 0] for s in specs]
    # one row per prepared ground state, one column per beta
    states = [[apply_shift(ground, basis, shift)[0] for shift in shifts] for ground in grounds]
    shape = (len(grounds), len(shifts))
    p = np.abs(np.reshape(states, (*shape, dim))) ** 2
    theta = grid_points(basis)
    (cosine,) = [term for term in terms(spec) if term.kind is OperatorKind.COS_THETA]
    # the same grid values _dvr_terms puts on the diagonal of H
    cos_own = np.cos(theta + 2.0 * np.pi * cosine.flux)
    rest = np.reshape([[expectation(h, state) for state in row] for row in states], shape)
    rest = rest - cosine.coefficient * _grid_dot(p, cos_own)
    arg = theta + 2.0 * np.pi * a_values[:, None, None]
    energies = rest + cosine.coefficient * _grid_dot(p, np.cos(arg))
    currents = _grid_dot(p, np.sin(arg))
    a_column = np.repeat(a_values, len(shifts)).tolist()
    phis = [shift.phi(basis) for shift in shifts] * a_values.size
    return list(zip(a_column, phis, energies.ravel().tolist(), currents.ravel().tolist()))
