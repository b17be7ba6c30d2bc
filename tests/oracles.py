"""Slow reference implementations that the tests compare against.

The direct sum for the truncated DVRs shares no machinery with the package's
closed-form columns, so an agreement between the two is evidence about
both.  The per-term DVR Hamiltonian builds each term as a dense matrix from
the public operator builders and sums them, apart from the Toeplitz assembly
of ``spectra``.  The reassembling flux sweep evaluates <H(A)> and the current
as dense expectations of H(A) and sin(theta + 2*pi*A) rebuilt at every A,
apart from the population shortcut of ``states.flux_sweep``; it takes its
states from ``spectra.lowest_states`` as the sweep does, so the two agree on
the state and differ only in the algebra (the states themselves are checked
against the dense solve in ``test_spectra``).  The shift
matrix is the beta-th matrix power of a one-step matrix filled column by
column.  The two-block sweep solves both parity blocks at every size and
merges their lowest values, without the ground-level certificate of
``spectra.eigenvalues_by_size``.  The finite-difference stencil matrix sums
one shifted identity per stencil offset instead of building one Toeplitz or
circulant matrix from the stencil column.  The row-wise CSV writer formats
one value at a time with ``cli._fmt`` instead of one column at a time.
"""

import math

import numpy as np
import scipy.linalg

from dvrcircuits.cli import _fmt
from dvrcircuits.circuits import CircuitSpec, Family, HamiltonianTerm, OperatorKind, terms
from dvrcircuits.dvr import (
    DvrBasis,
    OperatorMatrix,
    conj_moment_traditional,
    conj_moment_truncated,
    cosine_in_charge,
    diag_of_discretized,
    sine_in_phase,
    truncated_moment_column,
)
from dvrcircuits.errors import ConfigError
from dvrcircuits.fdm import Boundary, FdGrid, fd_coefficients
from dvrcircuits.spectra import (
    DvrRep,
    Representation,
    _block_solver,
    _parity_blocks,
    _solver_matrix,
    assemble,
    concrete_dvr_basis,
    lowest_states,
    nested_start,
    splits_by_parity,
)
from dvrcircuits.states import ShiftSpec, StateVector, apply_shift, expectation


def conj_moment_truncated_direct(basis: DvrBasis, power: int) -> OperatorMatrix:
    """Independent finite-sum evaluation of the truncated conjugate moments.

    Slow elementwise reference path used to validate the closed-form
    columns; kept free of any shared machinery with conj_moment_truncated.
    """
    if not basis.kind.is_truncated:
        raise ConfigError("conj_moment_truncated_direct requires a truncated kind")
    if power not in (1, 2):
        raise ConfigError(f"power must be 1 or 2, got {power}")
    M, d = basis.M, basis.dim
    dy = basis.conjugate_spacing
    sign = -1.0 if basis.kind.is_phase else 1.0
    # an entry depends only on k = a - b: one sum per k in [-2M, 2M]
    by_difference = np.empty(4 * M + 1, dtype=complex)
    for k in range(-2 * M, 2 * M + 1):
        # compensated accumulation: the terms cancel heavily for k != 0;
        # n*k is reduced mod d in integers so the phase carries no rounding
        # that grows with M
        phases = [(n, 2.0 * math.pi * (n * k % d) / d) for n in range(-M, M + 1)]
        re = math.fsum((n * dy) ** power * math.cos(t) for n, t in phases)
        im = math.fsum((n * dy) ** power * sign * math.sin(t) for n, t in phases)
        by_difference[k + 2 * M] = complex(re, im) / d
    a = np.arange(d)
    return OperatorMatrix(by_difference[a[:, None] - a + 2 * M])


def _dvr_term_operator(basis: DvrBasis, term: HamiltonianTerm) -> OperatorMatrix:
    """One Hamiltonian term in a sinc DVR, as a dense matrix from the public builders."""
    kind = term.kind
    if basis.kind.is_phase:
        if kind is OperatorKind.THETA_SQUARED:
            return diag_of_discretized(basis, np.square)
        if kind is OperatorKind.COS_THETA:
            shift = term.sign * 2.0 * np.pi * term.flux
            return diag_of_discretized(basis, lambda th: np.cos(th + shift))
        if kind is OperatorKind.N_SQUARED:
            if basis.kind.is_truncated:
                return conj_moment_truncated(basis, 2)
            return conj_moment_traditional(basis, 2)
        if kind is OperatorKind.N_SHIFTED_SQUARED and basis.kind.is_truncated:
            return OperatorMatrix(scipy.linalg.circulant(truncated_moment_column(basis, 2, term.offset)))
    else:
        if kind is OperatorKind.N_SQUARED:
            return diag_of_discretized(basis, np.square)
        if kind is OperatorKind.N_SHIFTED_SQUARED:
            return diag_of_discretized(basis, lambda n: (n - term.offset) ** 2)
        if kind is OperatorKind.THETA_SQUARED:
            if basis.kind.is_truncated:
                return conj_moment_truncated(basis, 2)
            return conj_moment_traditional(basis, 2)
        if kind is OperatorKind.COS_THETA:
            return cosine_in_charge(basis, term.flux, term.sign)
    raise ConfigError(f"term {kind!r} not supported in {basis.kind.value}")


def dvr_hamiltonian_by_terms(spec: CircuitSpec, rep: DvrRep, dim: int) -> np.ndarray:
    """The sinc-DVR Hamiltonian as the sum, in the order of ``terms(spec)``, of
    each coefficient times its term's dense matrix."""
    basis = concrete_dvr_basis(rep, dim)
    return sum(term.coefficient * _dvr_term_operator(basis, term).entries for term in terms(spec))


def shift_operator_by_powers(basis: DvrBasis, shift: ShiftSpec) -> OperatorMatrix:
    """The beta-th matrix power of the single-step shift matrix, which sends
    coefficient alpha to alpha - direction (wrapped on a truncated grid)."""
    if not basis.kind.is_phase:
        raise ConfigError("phase shifts require a phase-kind DVR")
    d = basis.dim
    step = np.zeros((d, d))
    for col in range(d):
        row = col - shift.direction
        if basis.kind.is_truncated:
            step[row % d, col] = 1.0
        elif 0 <= row < d:
            step[row, col] = 1.0
    return OperatorMatrix(np.linalg.matrix_power(step, shift.beta))


def flux_sweep_by_reassembly(
    spec: CircuitSpec,
    rep: DvrRep,
    dim: int,
    betas: tuple[int, ...],
    direction: int = +1,
    a_values: np.ndarray | None = None,
    rediagonalize: bool = False,
) -> list[tuple[float, float, float, float]]:
    """``states.flux_sweep`` with H(A) and sin(theta + 2*pi*A) rebuilt as dense
    matrices at every A and both rows' values taken as dense expectations."""
    if spec.family is not Family.FLUXONIUM:
        raise ConfigError("flux sweeps are defined for the fluxonium")
    if rep.spacing is None:
        raise ConfigError("flux sweeps need an explicit grid spacing")
    basis = DvrBasis(rep.kind, rep.spacing, (dim - 1) // 2)
    if not basis.kind.is_phase:
        raise ConfigError("flux sweeps require a phase DVR")
    if a_values is None:
        a_values = np.linspace(0.0, 1.0, 101)
    ground = StateVector.from_eigenvector(lowest_states(spec, rep, dim, 1), 0)
    shifted = {beta: apply_shift(ground, basis, ShiftSpec(beta, direction))[0] for beta in betas}
    rows = []
    for a in a_values:
        spec_a = CircuitSpec.fluxonium(spec.E_C, spec.E_L, spec.E_J, float(a))
        h_a = assemble(spec_a, rep, dim)
        current_a = sine_in_phase(basis, float(a))
        if rediagonalize:
            base = StateVector.from_eigenvector(lowest_states(spec_a, rep, dim, 1), 0)
        for beta in betas:
            if rediagonalize:
                state, _ = apply_shift(base, basis, ShiftSpec(beta, direction))
            else:
                state = shifted[beta]
            rows.append(
                (
                    float(a),
                    ShiftSpec(beta, direction).phi(basis),
                    expectation(h_a, state),
                    expectation(current_a, state),
                )
            )
    return rows


def eigenvalues_by_size_merging_blocks(
    spec: CircuitSpec, rep: Representation, sizes: tuple[int, ...], upto: int
) -> list[np.ndarray]:
    """``spectra.eigenvalues_by_size`` with both parity blocks of a split
    representation solved at every size and their lowest values merged."""
    if not sizes:
        raise ConfigError("empty size list")
    top = max(sizes)
    split = splits_by_parity(spec, rep)

    def solvers(d):
        blocks = _parity_blocks(spec, rep, d) if split else (assemble(spec, rep, d).entries,)
        return [_block_solver(_solver_matrix(b)) for b in blocks]

    nested = nested_start(rep, top, top) is not None
    shared = solvers(top) if nested else None
    out = []
    for d in sizes:
        start = nested_start(rep, top, d) if nested else 0
        solve = shared if nested else solvers(d)
        k = min(upto, d - 1)
        if split:  # the blocks of H(d) lead those of H(top)
            parts = [block(0, n, min(k, n - 1)) for block, n in zip(solve, ((d + 1) // 2, d // 2)) if n]
            out.append(np.sort(np.concatenate(parts))[: k + 1])
        else:
            out.append(solve[0](start, d, k))
    return out


def second_derivative_matrix_by_offsets(grid: FdGrid) -> np.ndarray:
    """The stencil matrix as a sum of c * (shifted identity) over the offsets,
    wrapped on a periodic grid and cut at the edge of a bounded one."""
    d = grid.dim
    mat = np.zeros((d, d))
    for offset, c in zip(range(-grid.order_M, grid.order_M + 1), fd_coefficients(grid.order_M)):
        if grid.boundary is Boundary.PERIODIC:
            mat += c * np.roll(np.eye(d), offset, axis=1)
        else:
            mat += c * np.eye(d, k=offset)
    return mat


def write_csv_by_rows(path, header: list[str], rows: list[tuple]) -> None:
    """``cli._write_csv`` with ``_fmt`` called on each value, row by row."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
