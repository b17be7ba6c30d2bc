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
``spectra.size_solver``.  The finite-difference stencil matrix sums
one shifted identity per stencil offset instead of building one Toeplitz
matrix from the stencil column, and the per-term finite-difference
Hamiltonian adds to it each potential term as a dense diagonal matrix,
apart from the potential loop of ``fdm.fd_hamiltonian``.  The row-wise CSV
writer formats one value at a time with ``cli._fmt`` instead of one column
at a time.  The
closed-form HO cosine element evaluates the displacement-operator matrix
element in 60-digit arithmetic.  The dense HO Hamiltonian sums the
pentadiagonal theta^2 and N^2 and the dense cosine of ``ho.cos_in_ho`` as
full matrices, apart from the parity blocks ``spectra.assemble`` builds it
from.  The full-embedding HO cosine diagonalizes
theta in all embed_dim states and
evaluates cos(w + 2*pi*A) on its eigenvalues, apart from the half-size
parity blocks of ``ho``.  The DVR self-check evaluates the closed-form
basis functions on a refined grid; the HO ladder matrices theta and N are
the truncated tridiagonal ladders, whose products the closed-form quadratic
bands must match away from the edge.
"""

import math
from dataclasses import dataclass

import mpmath
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
    grid_points,
    truncated_moment_column,
)
from dvrcircuits.errors import ConfigError
from dvrcircuits.fdm import Boundary, FdGrid, fd_coefficients
from dvrcircuits.ho import HoBasis, cos_in_ho, length_scale, quadratic_bands
from dvrcircuits.spectra import (
    DvrRep,
    HoRep,
    Representation,
    _block_solver,
    _blocks,
    _solver_matrix,
    assemble,
    concrete_dvr_basis,
    lowest_states,
    nested_start,
    splits_by_parity,
)
from dvrcircuits.states import ShiftSpec, apply_shift, expectation


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
            shift = 2.0 * np.pi * term.flux
            return diag_of_discretized(basis, lambda th: np.cos(th + shift))
        if kind is OperatorKind.N_SQUARED and basis.kind.is_truncated:
            if term.offset:  # (N - N_g)^2: the shifted column
                return OperatorMatrix(scipy.linalg.circulant(truncated_moment_column(basis, 2, term.offset)))
            return conj_moment_truncated(basis, 2)
        if kind is OperatorKind.N_SQUARED and not term.offset:
            return conj_moment_traditional(basis, 2)
    else:
        if kind is OperatorKind.N_SQUARED and term.offset:
            return diag_of_discretized(basis, lambda n: (n - term.offset) ** 2)
        if kind is OperatorKind.N_SQUARED:
            return diag_of_discretized(basis, np.square)
        if kind is OperatorKind.THETA_SQUARED:
            if basis.kind.is_truncated:
                return conj_moment_truncated(basis, 2)
            return conj_moment_traditional(basis, 2)
        if kind is OperatorKind.COS_THETA:
            return cosine_in_charge(basis, term.flux)
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
    ground = lowest_states(spec, rep, dim, 1).eigvectors[:, 0]
    shifted = {beta: apply_shift(ground, basis, ShiftSpec(beta, direction))[0] for beta in betas}
    rows = []
    for a in a_values:
        spec_a = CircuitSpec.fluxonium(spec.E_C, spec.E_L, spec.E_J, float(a))
        h_a = assemble(spec_a, rep, dim)
        current_a = diag_of_discretized(basis, lambda th: np.sin(th + 2.0 * np.pi * float(a)))
        if rediagonalize:
            base = lowest_states(spec_a, rep, dim, 1).eigvectors[:, 0]
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
    """The values of one ``spectra.size_solver`` at every size, in the order
    given, with both parity blocks of a split representation solved at every
    size and their lowest values merged."""
    if not sizes:
        raise ConfigError("empty size list")
    top = max(sizes)
    split = splits_by_parity(spec, rep)
    blocks = _blocks(spec, rep)

    def solvers(d):
        return [_block_solver(_solver_matrix(b)) for b in blocks(d)]

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


def fd_hamiltonian_by_terms(spec: CircuitSpec, grid: FdGrid) -> np.ndarray:
    """-4 E_C / spacing^2 times the stencil matrix summed over its offsets, plus
    the sum, in the order of ``terms(spec)``, of each potential term's
    coefficient times its dense diagonal matrix on the grid."""
    theta = grid.points()
    kinetic, potential = None, 0
    for term in terms(spec):
        if term.kind is OperatorKind.THETA_SQUARED:
            potential = potential + np.diag(term.coefficient * np.square(theta))
        elif term.kind is OperatorKind.COS_THETA:
            potential = potential + np.diag(term.coefficient * np.cos(theta + 2.0 * np.pi * term.flux))
        else:
            kinetic = -term.coefficient / grid.spacing**2
    return kinetic * second_derivative_matrix_by_offsets(grid) + potential


def write_csv_by_rows(path, header: list[str], rows: list[tuple]) -> None:
    """``cli._write_csv`` with ``_fmt`` called on each value, row by row."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def cos_in_ho_by_full_embedding(basis: HoBasis, A: float) -> np.ndarray:
    """cos(theta + 2*pi*A) from one eigendecomposition of the embed_dim x
    embed_dim tridiagonal theta, truncated to dim."""
    n = basis.embed_dim
    w, u = scipy.linalg.eigh_tridiagonal(np.zeros(n), basis.theta0 * np.sqrt(np.arange(1, n) / 2.0))
    return ((u * np.cos(w + 2.0 * np.pi * A)) @ u.T)[: basis.dim, : basis.dim]


def ho_cos_element(theta0: float, A: float, m: int, n: int) -> float:
    """<m|cos(theta + 2*pi*A)|n> for theta = (theta0 / sqrt(2)) (a_dag + a),
    in 60-digit arithmetic.

    With l = theta0 / sqrt(2), k = m - n >= 0 and e^{i theta} the displacement
    by i l, <m|e^{+-i theta}|n> = sqrt(n!/m!) (+-i l)^k e^{-l^2/2} L_n^(k)(l^2)
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), so cos(theta) has the
    entries with k even, (-1)^(k/2) times that magnitude, and sin(theta) those
    with k odd, (-1)^((k-1)/2) times it; the matrix is symmetric.
    """
    m, n = max(m, n), min(m, n)
    k = m - n
    with mpmath.workdps(60):
        lam = mpmath.mpf(theta0) / mpmath.sqrt(2)
        size = mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(m)) * lam**k
        size *= mpmath.exp(-lam**2 / 2) * mpmath.laguerre(n, k, lam**2)
        phase = 2 * mpmath.pi * mpmath.mpf(A)
        if k % 2:
            return float(-mpmath.sin(phase) * (-1) ** ((k - 1) // 2) * size)
        return float(mpmath.cos(phase) * (-1) ** (k // 2) * size)


def pentadiagonal(diag: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """Symmetric matrix with diag on the diagonal and off2 on the +-2 bands."""
    d = diag.shape[0]
    h = np.zeros((d, d))
    i = np.arange(d - 2)
    h[i, i + 2] = h[i + 2, i] = off2
    np.fill_diagonal(h, diag)
    return h


def ho_hamiltonian_dense(spec: CircuitSpec, rep: HoRep, dim: int) -> np.ndarray:
    """4 E_C N^2 + E_L theta^2 / 2 - E_J cos(theta + 2*pi*A) in the HO basis,
    each term a dense dim x dim matrix."""
    basis = HoBasis(length_scale(spec, rep.scale), dim, rep.embed_dim)
    theta2, n2 = (pentadiagonal(*bands) for bands in quadratic_bands(basis))
    h = 4.0 * spec.E_C * n2 + 0.5 * spec.E_L * theta2
    if spec.family is Family.FLUXONIUM:
        h = h - spec.E_J * cos_in_ho(basis, spec.A).entries
    return h


def ho_operators(basis: HoBasis) -> tuple[OperatorMatrix, OperatorMatrix]:
    """(theta, N) as dim x dim tridiagonal matrices, normalized so [theta, N] = i."""
    if basis.dim < 2:
        raise ConfigError("ho_operators needs dim >= 2")
    off = np.sqrt(np.arange(1, basis.dim) / 2.0)
    theta = np.diag(basis.theta0 * off, 1) + np.diag(basis.theta0 * off, -1)
    n = np.diag(-1j * off / basis.theta0, 1) + np.diag(1j * off / basis.theta0, -1)
    return OperatorMatrix(theta), OperatorMatrix(n)


def basis_function_values(basis: DvrBasis, alpha: int, x: np.ndarray) -> np.ndarray:
    """Closed-form DVR basis function psi_alpha evaluated at points x.

    Sinc for the traditional kinds; Dirichlet kernel (periodic on
    [-bound, bound] with period dim * spacing) for the truncated kinds.
    """
    s = basis.spacing_value
    u = np.asarray(x, dtype=float) - alpha * s
    if not basis.kind.is_truncated:
        return np.sqrt(1.0 / s) * np.sinc(u / s)
    d = basis.dim
    z = u / s
    denom = np.sin(np.pi * z / d)
    at_node = np.abs(denom) < 1e-12
    safe = np.where(at_node, 1.0, denom)
    # Removable singularity: the kernel equals 1/sqrt(s) whenever z = m*d.
    return np.where(at_node, 1.0 / np.sqrt(s), np.sin(np.pi * z) / (d * safe) / np.sqrt(s))


@dataclass(frozen=True)
class SelfCheckReport:
    interpolation_defect: float
    overlap_defect: float


def dvr_selfcheck(basis: DvrBasis, fine_factor: int) -> SelfCheckReport:
    """Verify the defining DVR conditions on a refined grid.

    Checks that each basis function vanishes at every other grid point (and
    takes the value sqrt(c_alpha) at its own), and that numerically
    integrated pairwise overlaps reproduce the identity.  Truncated kinds are
    integrated over one period; traditional kinds over a padded window, with
    slow sinc tails limiting the achievable overlap accuracy.
    """
    if fine_factor < 4:
        raise ConfigError(f"fine_factor must be >= 4, got {fine_factor}")
    s = basis.spacing_value
    M, d = basis.M, basis.dim
    pts = grid_points(basis)
    alphas = np.arange(-M, M + 1)
    psi_at_nodes = np.stack([basis_function_values(basis, a, pts) for a in alphas])
    target = np.sqrt(basis.weight) * np.eye(d)
    interpolation_defect = float(np.abs(psi_at_nodes - target).max())

    if basis.kind.is_truncated:
        # One full period, trapezoid on an even refinement (endpoints identified).
        npts = d * fine_factor
        xs = (np.arange(npts) - npts // 2) * (d * s / npts)
        w = d * s / npts
        values = np.stack([basis_function_values(basis, a, xs) for a in alphas])
        overlaps = values @ values.T * w
    else:
        pad = 60
        half = (M + pad) * fine_factor
        xs = np.arange(-half, half + 1) * (s / fine_factor)
        values = np.stack([basis_function_values(basis, a, xs) for a in alphas])
        wts = np.full(xs.size, s / fine_factor)
        wts[0] *= 0.5
        wts[-1] *= 0.5
        overlaps = (values * wts) @ values.T
    overlap_defect = float(np.abs(overlaps - np.eye(d)).max())
    return SelfCheckReport(interpolation_defect=interpolation_defect, overlap_defect=overlap_defect)
