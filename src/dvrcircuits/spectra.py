"""Hamiltonian assembly per representation and the Hermitian eigensolvers.

A representation descriptor names a basis family (sinc DVR, harmonic
oscillator, finite differences) together with its grid; :func:`assemble`
instantiates it at a concrete matrix size and builds the circuit Hamiltonian.
A sinc-DVR Hamiltonian is a diagonal plus a Hermitian Toeplitz matrix: each
circuit term is reduced once (:func:`_dvr_terms`) to a function sampled on the
grid or to the first column of a Toeplitz operator, and both the full matrix
and the parity blocks are built from that one list.
:func:`size_solver` serves a sweep over matrix sizes: where every size
is a block of the largest (:func:`nested_start`) it assembles once and slices,
a narrow-banded matrix is solved on its bands, and a dense block with one
direct LAPACK call (:func:`_lowest`), the call :func:`eigensolve`
makes for eigenvectors too.  What it and :func:`lowest_states` solve comes
from one route, :func:`_blocks`: a dense Hamiltonian that
commutes with the parity theta -> -theta (:func:`splits_by_parity`, decided
from the circuit) is solved as an even and an odd block of half the size; a
DVR builds them on the half grid as Toeplitz +- Hankel, strided views of the
summed column, plus the diagonal; the HO basis as the tridiagonal parts of
its quadratic terms plus the cosine's cached parity blocks
(:func:`ho.cos_parity_blocks`), and :func:`assemble` builds the full HO
matrix from the same blocks.  Any other H is solved whole.
A sweep for the ground level alone solves one of the two blocks and proves
with one shifted Cholesky factorization (:func:`_bounded_below`) that the
other has nothing lower, solving it only when that proof fails.
Reference energies come from a closed form (LC), or from one call into the
sweep engine at a large size: every level of the LC-scale harmonic-oscillator
basis at its embedding size (fluxonium), or the bisected lowest levels of a
large charge basis (transmon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.linalg

from .circuits import CircuitSpec, Family, HamiltonianTerm, OperatorKind, terms
from .dvr import (
    DvrBasis,
    DvrKind,
    OperatorMatrix,
    Spacing,
    cosine_band,
    grid_points,
    traditional_moment_elements,
    truncated_moment_column,
)
from .errors import ConfigError, IncompatibleRepresentationError, NumericalError
from .fdm import Boundary, FdGrid, fd_hamiltonian
from .ho import (
    DEFAULT_EMBED_DIM,
    HoBasis,
    LengthScale,
    cos_off_parity_block,
    cos_parity_blocks,
    length_scale,
    quadratic_bands,
)

HERMITICITY_RTOL = 1e-13
FLUXONIUM_ORACLE_DIM = DEFAULT_EMBED_DIM
TRANSMON_ORACLE_DIM = 401
TRANSMON_ORACLE_LEVELS = 64


@dataclass(frozen=True)
class DvrRep:
    """A sinc-DVR family at fixed grid spacing.

    ``spacing=None`` is allowed only for the truncated phase DVR of the
    transmon, where dTheta = 2*pi/d is a function of the matrix size.
    """

    kind: DvrKind
    spacing: Spacing | None = None

    @property
    def label(self) -> str:
        if self.spacing is None:
            return f"{self.kind.value}[2pi/d]"
        star = "pi" if self.spacing.pi else ""
        return f"{self.kind.value}[{self.spacing.num}/{self.spacing.den}{star}]"


@dataclass(frozen=True)
class HoRep:
    scale: LengthScale
    embed_dim: int = DEFAULT_EMBED_DIM

    @property
    def label(self) -> str:
        return f"ho[{self.scale.value}]"


@dataclass(frozen=True)
class FdRep:
    """Finite differences; ``spacing=None`` means the periodic 2*pi/d grid."""

    spacing: float | None = None
    order_M: int = 1
    boundary: Boundary = Boundary.BOUNDED

    @property
    def label(self) -> str:
        s = "2pi/d" if self.spacing is None else f"{self.spacing:.6g}"
        return f"fdm[{self.boundary.value},{s},M={self.order_M}]"


Representation = DvrRep | HoRep | FdRep


def charge_basis() -> DvrRep:
    """The textbook charge basis: traditional charge DVR with dN = 1."""
    return DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 1))


@dataclass(frozen=True)
class Spectrum:
    energies: np.ndarray
    eigvectors: np.ndarray  # column-major: eigvectors[:, i] belongs to energies[i]
    dim: int

    def __post_init__(self):
        if not (np.isfinite(self.energies).all() and np.all(np.diff(self.energies) >= 0)):
            raise NumericalError("energies must be finite and ascending")
        norms = np.linalg.norm(self.eigvectors, axis=0)
        if self.eigvectors.size and not np.abs(norms - 1.0).max() <= 1e-12:
            raise NumericalError("eigenvectors must be finite and unit-norm")


def _transmon_compatible(rep: Representation) -> bool:
    if isinstance(rep, DvrRep):
        if rep.kind is DvrKind.TRADITIONAL_CHARGE:
            return rep.spacing is not None and rep.spacing.fraction == 1 and not rep.spacing.pi
        if rep.kind is DvrKind.TRUNCATED_PHASE:
            return rep.spacing is None
        return False
    if isinstance(rep, FdRep):
        return rep.boundary is Boundary.PERIODIC and rep.spacing is None
    return False


def check_compatible(spec: CircuitSpec, rep: Representation) -> None:
    if spec.family is Family.TRANSMON:
        if not _transmon_compatible(rep):
            raise IncompatibleRepresentationError(
                f"{rep!r} cannot represent the transmon: its 2*pi-periodic potential "
                "quantizes charge to integers, so only the dN=1 charge basis, the "
                "truncated phase DVR with dTheta = 2*pi/d, or the periodic "
                "finite-difference grid apply"
            )
        return
    if isinstance(rep, DvrRep):
        if rep.spacing is None:
            raise ConfigError("size-dependent spacing is reserved for the transmon")
    elif isinstance(rep, FdRep):
        if rep.boundary is Boundary.PERIODIC:
            raise IncompatibleRepresentationError(
                f"{spec.family.value} has a non-periodic potential; use a bounded grid"
            )
        if rep.spacing is None:
            raise ConfigError("bounded finite differences require an explicit spacing")
    elif isinstance(rep, HoRep):
        pass
    else:
        raise ConfigError(f"unknown representation {rep!r}")


def concrete_dvr_basis(rep: DvrRep, dim: int) -> DvrBasis:
    if dim < 1 or dim % 2 == 0:
        raise ConfigError(f"matrix dimension must be odd and positive, got {dim}")
    m = (dim - 1) // 2
    if rep.spacing is None:
        return DvrBasis(rep.kind, Spacing(2, dim, pi=True), m)
    return DvrBasis(rep.kind, rep.spacing, m)


def _dvr_terms(spec_terms: list[HamiltonianTerm], basis: DvrBasis) -> list[tuple[bool, np.ndarray]]:
    """Each of ``spec_terms`` in the DVR, times its coefficient, in that order.

    A function of the discretized variable is diagonal: (False, v), v[alpha + M]
    its value at grid point alpha.  A function of the conjugate
    variable depends only on n = alpha - beta: (True, t), t[n] for n >= 0 the
    first column of a Hermitian Toeplitz matrix.  That is the closed form on a
    traditional grid, and on a truncated grid the circulant's closed-form
    column (:func:`dvr.truncated_moment_column`), which is exactly Hermitian
    (t[n] = conj(t[d - n])), so the circulant is Toeplitz.  Every t and v is
    real except the transmon's 2*pi/d grid at N_g != 0 and a charge grid's
    cosine band at 2A not an integer.
    Called under :data:`_QUIET`.  ConfigError unless twice the sum of the
    terms' largest magnitudes is finite: that bounds every entry of the full
    matrix and of the parity blocks, where each entry adds at most two entries
    of each term's column and one of its grid values.
    """
    n = np.arange(basis.dim)
    grid = grid_points(basis)
    reduced = []
    for term in spec_terms:
        on_grid = basis.kind.is_phase == (term.kind in (OperatorKind.THETA_SQUARED, OperatorKind.COS_THETA))
        if on_grid and term.kind is OperatorKind.COS_THETA:
            values = np.cos(grid + 2.0 * np.pi * term.flux)
        elif on_grid:
            values = np.square(grid - term.offset)
        elif term.kind is OperatorKind.COS_THETA:
            k, upper = cosine_band(basis, term.flux)
            values = np.where(n == k, np.conj(upper), 0.0)
        elif basis.kind.is_truncated:
            values = truncated_moment_column(basis, 2, term.offset)
        else:  # an offset N_g arises only for the transmon, never on this grid
            values = traditional_moment_elements(basis, 2, n)
        reduced.append((not on_grid, term.coefficient * values))
    bound = 2.0 * sum(np.abs(t).max() for _, t in reduced)
    if not np.isfinite(bound):
        raise ConfigError(
            f"the Hamiltonian is not finite on the {basis.kind.value} grid of spacing {basis.spacing_value!r}"
        )
    return reduced


# an entry that overflows is caught by the finiteness check of _dvr_terms
_QUIET = dict(over="ignore", divide="ignore", invalid="ignore")


def _assemble_dvr(spec: CircuitSpec, rep: DvrRep, dim: int) -> OperatorMatrix:
    """Toeplitz from the summed columns, with each diagonal entry summed over
    every term in the order of ``terms(spec)``."""
    with np.errstate(**_QUIET):
        reduced = _dvr_terms(terms(spec), concrete_dvr_basis(rep, dim))
    h = scipy.linalg.toeplitz(sum(t for column, t in reduced if column))
    np.fill_diagonal(h, sum(t[0] if column else t for column, t in reduced))
    return OperatorMatrix(h)


def _ho_basis(spec: CircuitSpec, rep: HoRep, dim: int) -> HoBasis:
    if dim > rep.embed_dim:
        raise ConfigError(f"matrix dimension {dim} exceeds the HO embedding size {rep.embed_dim}")
    return HoBasis(length_scale(spec, rep.scale), dim, rep.embed_dim)


def _assemble_ho(spec: CircuitSpec, rep: HoRep, dim: int) -> OperatorMatrix:
    """The parity blocks (:func:`_ho_parity_blocks`) on the even and the odd
    states, and for a fluxonium whose 2A is not an integer -E_J times the
    cosine's entries between the parities, which are finite (|entry| <= E_J)."""
    h = np.zeros((dim, dim))
    h[0::2, 0::2], h[1::2, 1::2] = _ho_parity_blocks(spec, rep)(dim)
    if not parity_even(spec):
        h[1::2, 0::2] = -spec.E_J * cos_off_parity_block(_ho_basis(spec, rep, dim), spec.A)
        h[0::2, 1::2] = h[1::2, 0::2].T
    return OperatorMatrix(h)


def _assemble_fd(spec: CircuitSpec, rep: FdRep, dim: int) -> OperatorMatrix:
    if dim < 3 or dim % 2 == 0:
        raise ConfigError(f"matrix dimension must be odd and >= 3, got {dim}")
    half = (dim - 1) // 2
    spacing = 2.0 * math.pi / dim if rep.spacing is None else rep.spacing
    grid = FdGrid(spacing, half, order_M=rep.order_M, boundary=rep.boundary)
    return fd_hamiltonian(spec, grid)


def assemble(spec: CircuitSpec, rep: Representation, dim: int) -> OperatorMatrix:
    """Hermitian dim x dim Hamiltonian of the circuit in the representation (GHz)."""
    check_compatible(spec, rep)
    if isinstance(rep, DvrRep):
        return _assemble_dvr(spec, rep, dim)
    if isinstance(rep, HoRep):
        return _assemble_ho(spec, rep, dim)
    return _assemble_fd(spec, rep, dim)


# rows per strip of the Hermiticity check: h[strip] - h[:, strip]^H reads h
# in cache-sized pieces and holds a strip, not a matrix, of temporaries
_GATE_ROWS = 128


def _solver_matrix(h: np.ndarray) -> np.ndarray:
    """The one gate before LAPACK: reject a non-finite or non-Hermitian
    matrix, then drop a numerically-zero imaginary part so LAPACK takes the
    real path.

    The defect is max |h - h^H| and the tolerance HERMITICITY_RTOL times
    max(max |h|, 1).  D = h - h^H is anti-Hermitian, so for a real h its
    largest entry is its largest magnitude: no absolute value is taken, and
    max |h| is max(max h, -min h).  An inf in h would make the tolerance inf,
    so a non-finite max |h| fails; a NaN anywhere in h is a NaN in D.
    """
    complex_h = np.iscomplexobj(h)
    strips = [slice(r, r + _GATE_ROWS) for r in range(0, h.shape[0], _GATE_ROWS)]
    if complex_h:
        scale = max((np.abs(h[rows]).max() for rows in strips), default=0.0)
    else:
        scale = max(h.max(initial=0.0), -h.min(initial=0.0))
    if not scale < math.inf:
        raise NumericalError(f"matrix is not finite (max |h| = {scale})")
    tol = HERMITICITY_RTOL * max(scale, 1.0)
    for rows in strips:
        d = h[rows] - (h[:, rows].conj().T if complex_h else h[:, rows].T)
        defect = np.abs(d).max() if complex_h else d.max()
        if not defect <= tol:
            raise NumericalError(f"matrix is not Hermitian (defect {defect:.3e})")
    if complex_h and max(h.imag.max(initial=0.0), -h.imag.min(initial=0.0)) <= tol:
        return np.ascontiguousarray(h.real)
    return h


def eigensolve(h: OperatorMatrix, k: int) -> Spectrum:
    """Lowest k eigenpairs of a Hermitian matrix, ascending and unit-norm, from
    the one LAPACK call of :func:`_lowest`."""
    dim = h.dim
    if not 1 <= k <= dim:
        raise ConfigError(f"k must be in [1, {dim}], got {k}")
    energies, vectors = _lowest(_solver_matrix(h.entries), k - 1, vectors=True)
    return Spectrum(energies, vectors, dim)


def nested_start(rep: Representation, top: int, dim: int) -> int | None:
    """Row of H(top) where H(dim) starts when H(dim) is exactly a block of H(top).

    Traditional DVRs and bounded finite differences on a fixed grid have
    elements that depend only on alpha - beta and on the grid point, so every
    size is the centred block; HO elements depend only on the number indices
    and the cosine truncates one embedded operator, so every size is the
    leading block.  Truncated DVRs, the 2*pi/d grids and periodic wrap-around
    change every element with the size: None.  A size that :func:`assemble`
    would reject raises ConfigError here too.
    """
    if isinstance(rep, HoRep):
        return 0
    if isinstance(rep, DvrRep):
        if rep.spacing is None or rep.kind.is_truncated:
            return None
    elif rep.spacing is None or rep.boundary is Boundary.PERIODIC:
        return None
    elif dim < 2 * rep.order_M + 1:
        raise ConfigError(
            f"stencil of order {rep.order_M} needs a size >= {2 * rep.order_M + 1}, got {dim}"
        )
    if dim < 1 or (top - dim) % 2:
        raise ConfigError(f"size {dim} has no centred block in size {top}; sizes must be odd")
    return (top - dim) // 2


def half_bandwidth(h: np.ndarray) -> int:
    """Largest k such that the k-th subdiagonal of h has a nonzero entry."""
    # from the corner inwards: a full matrix is settled by its first entry
    for k in range(h.shape[0] - 1, 0, -1):
        if np.any(np.diagonal(h, -k)):
            return k
    return 0


# Crossover of eig_banded(select="i") against the dense subset solve for the
# lowest three eigenvalues, measured with one BLAS thread: the band solve takes
# 0.03-0.2 of the dense time at b <= 3 and d = 201-601, and breaks even at
# b = d/10 for every d from 51 to 601.
def _solves_banded(bandwidth: int, dim: int) -> bool:
    return 10 * bandwidth < dim


@lru_cache(maxsize=4)
def _evr(dtype: np.dtype) -> tuple[str, Callable, Callable]:
    """(routine, ?syevr or ?heevr, its workspace query) for a matrix of dtype."""
    routine = "heevr" if dtype.kind == "c" else "syevr"
    return (routine, *scipy.linalg.get_lapack_funcs((routine, routine + "_lwork"), dtype=dtype))


def _lowest(a: np.ndarray, upto: int, vectors: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The lowest upto+1 eigenvalues of the lower triangle of the square
    matrix a, from one LAPACK ?syevr or ?heevr call for a's dtype:
    scipy.linalg.eigvalsh(a, subset_by_index=(0, upto)), bit for bit, without
    its checks and copies.  With ``vectors`` it returns (values, vectors),
    those of scipy.linalg.eigh with the same subset.

    The workspace is the optimal one at a's own size, as eigvalsh queries it
    (about 1 us).  A minimal workspace makes ?sytrd run unblocked, and the
    optimum of a larger matrix changed values too: with the optimum of one
    random real 151 x 151 matrix, 16 of its 151 leading blocks, solved for 5
    values, moved by up to 1e-14.  NaN and inf are not checked for: :func:`_solver_matrix`
    has rejected them.  LAPACK gets a Fortran-ordered copy of a.
    """
    routine, evr, query = _evr(a.dtype)
    names = ("lwork", "lrwork", "liwork") if routine == "heevr" else ("lwork", "liwork")
    *sizes, info = query(a.shape[0], lower=1)
    if not info:
        workspace = {name: int(size.real) for name, size in zip(names, sizes)}
        w, v, m, _, info = evr(a, compute_v=int(vectors), range="I", lower=1, il=1, iu=upto + 1, **workspace)
    if info:
        raise NumericalError(f"LAPACK ?{routine} failed (info {info})")
    return (w[:m], v[:, :m]) if vectors else w[:m]


def _block_solver(h: np.ndarray) -> Callable[[int, int, int], np.ndarray]:
    """solve(start, dim, upto): lowest upto+1 eigenvalues of the dim x dim block
    of the gated matrix h at (start, start), on its lower bands when h is narrow.

    Both routes read the lower triangle, as the dense solver does.
    """
    n, b = h.shape[0], half_bandwidth(h)
    if not _solves_banded(b, n):
        def dense(start: int, dim: int, upto: int) -> np.ndarray:
            return _lowest(h[start : start + dim, start : start + dim], upto)

        return dense
    bands = np.zeros((b + 1, n), dtype=h.dtype)
    for k in range(b + 1):
        bands[k, : n - k] = np.diagonal(h, -k)

    def banded(start: int, dim: int, upto: int) -> np.ndarray:
        kd = min(b, dim - 1)
        ab = bands[: kd + 1, start : start + dim].copy()
        for k in range(1, kd + 1):
            ab[k, dim - k :] = 0.0  # couplings to rows below the block
        return scipy.linalg.eig_banded(
            ab, lower=True, eigvals_only=True, select="i", select_range=(0, upto)
        )

    return banded


def parity_even(spec: CircuitSpec) -> bool:
    """Whether H commutes with the parity theta -> -theta, decided from the
    circuit's parameters alone: always for the LC circuit, for the fluxonium
    iff 2A is an integer (cos(theta + 2*pi*A) = +-cos(theta)), for the transmon
    iff N_g = 0."""
    if spec.family is Family.LC:
        return True
    if spec.family is Family.FLUXONIUM:
        return float(2 * spec.A).is_integer()
    return spec.N_g == 0


def splits_by_parity(spec: CircuitSpec, rep: Representation) -> bool:
    """Whether a sweep solves H as an even and an odd block: a parity-even
    circuit in a representation whose H is dense by construction.

    Every grid here is centred on 0 and HO states have parity (-1)^m, so the
    representations keep the symmetry.  A sinc DVR is dense through its
    conjugate operator, except a charge grid for the transmon (no theta^2:
    tridiagonal); the HO basis is dense through the fluxonium's cosine and
    pentadiagonal without it; finite differences are banded.  Banded
    matrices keep their band solver, which the split measured slower.
    """
    if not parity_even(spec):
        return False
    if isinstance(rep, DvrRep):
        return rep.kind.is_phase or spec.family is not Family.TRANSMON
    return isinstance(rep, HoRep) and spec.family is Family.FLUXONIUM


def _dvr_parity_blocks(spec: CircuitSpec, rep: DvrRep) -> Callable[[int], tuple[np.ndarray, np.ndarray]]:
    """blocks(dim): the even and odd blocks of a parity-even DVR Hamiltonian
    H(dim), built on the half grid; ``terms(spec)`` is expanded once, here.

    Row k of the even block is e_0 (k = 0) or (e_k + e_-k)/sqrt(2), row k of
    the odd block (e_k - e_-k)/sqrt(2), k >= 1: rows ordered by distance from
    the centre.  With H = diag(V) + c[|alpha - beta|] (:func:`_dvr_terms`;
    the column of a parity-even H is real) the blocks are c[|j - k|] +-
    c[j + k] (Toeplitz +- Hankel) plus V at alpha >= 0 on the diagonal, the
    even block's row and column 0 scaled by 1/sqrt(2).  The Toeplitz and
    Hankel matrices are strided views of c; each block is one new array.
    """
    spec_terms = terms(spec)

    @np.errstate(**_QUIET)
    def blocks(dim: int) -> tuple[np.ndarray, np.ndarray]:
        basis = concrete_dvr_basis(rep, dim)
        reduced = _dvr_terms(spec_terms, basis)
        m = basis.M
        diag = sum(t for column, t in reduced if not column)[m:]
        col = sum(t for column, t in reduced if column)
        step = col.itemsize
        # toeplitz[j, k] = mirrored[m + j - k] = c[|j - k|], hankel[j, k] = c[j + k]
        mirrored = np.concatenate((col[m::-1], col[1 : m + 1]))
        toeplitz = np.ndarray((m + 1, m + 1), col.dtype, mirrored, m * step, (step, -step))
        hankel = np.ndarray((m + 1, m + 1), col.dtype, col, 0, (step, step))
        even = toeplitz + hankel
        odd = toeplitz[1:, 1:] - hankel[1:, 1:]
        even[0] *= math.sqrt(0.5)
        even[:, 0] *= math.sqrt(0.5)
        np.einsum("ii->i", even)[...] += diag
        np.einsum("ii->i", odd)[...] += diag[1:]
        return even, odd

    return blocks


def _ho_parity_blocks(spec: CircuitSpec, rep: HoRep) -> Callable[[int], tuple[np.ndarray, np.ndarray]]:
    """blocks(dim): the blocks of the HO Hamiltonian H(dim) on the even states
    m = 0, 2, ... and on the odd states m = 1, 3, ..., from which
    :func:`assemble` builds H(dim).

    4 E_C N^2 + E_L theta^2 / 2 couples m only to m and m +- 2, so on each
    parity it is tridiagonal (:func:`ho.quadratic_bands`); a fluxonium adds
    -E_J times the cosine's block (:func:`ho.cos_parity_blocks`), read from
    the cached embedding.  Only a parity-even circuit is the two blocks alone.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def blocks(dim: int) -> tuple[np.ndarray, np.ndarray]:
        basis = _ho_basis(spec, rep, dim)
        (theta2, theta2_band), (n2, n2_band) = quadratic_bands(basis)
        diag = 4.0 * spec.E_C * n2 + 0.5 * spec.E_L * theta2
        band = 4.0 * spec.E_C * n2_band + 0.5 * spec.E_L * theta2_band
        if spec.family is Family.FLUXONIUM:
            parts = [-spec.E_J * c for c in cos_parity_blocks(basis, spec.A)]
        else:
            parts = [np.zeros(((dim + 1) // 2,) * 2), np.zeros((dim // 2,) * 2)]
        for parity, h in enumerate(parts):
            n = h.shape[0]
            flat = h.reshape(-1)  # (k, k + 1) of the block is (m, m + 2) of H
            flat[:: n + 1] += diag[parity::2]
            flat[1 :: n + 1] += band[parity::2]
            flat[n :: n + 1] += band[parity::2]
            if not np.isfinite(h).all():
                raise ConfigError(f"the HO Hamiltonian at theta0 = {basis.theta0!r} is not finite")
        return parts[0], parts[1]

    return blocks


def _blocks(spec: CircuitSpec, rep: Representation) -> Callable[[int], tuple[np.ndarray, ...]]:
    """blocks(dim), the one route to the matrices a solve of H(dim) reads: the
    (even, odd) blocks, of sizes (dim + 1) // 2 and dim // 2, of a DVR or the
    HO basis where :func:`splits_by_parity` holds, and (H(dim),) otherwise.
    For a nested representation the blocks of H(d) lead those of H(dim)."""
    check_compatible(spec, rep)
    if not splits_by_parity(spec, rep):
        return lambda dim: (assemble(spec, rep, dim).entries,)
    if isinstance(rep, DvrRep):
        return _dvr_parity_blocks(spec, rep)
    return _ho_parity_blocks(spec, rep)


def lowest_states(spec: CircuitSpec, rep: Representation, dim: int, k: int) -> Spectrum:
    """Lowest k eigenpairs of H(dim), ascending and unit-norm: the one route
    by which the package's commands get eigenvectors.

    Where :func:`_blocks` gives two, each parity block is solved by
    :func:`eigensolve` for its lowest min(k, n) pairs and its vectors are
    mapped back to the full basis: in a DVR the even block's row 0 is the
    centre e_0 and its row j the state (e_j + e_-j)/sqrt(2), the odd block's
    row j - 1 the state (e_j - e_-j)/sqrt(2); in the HO basis the even states
    are m = 0, 2, ... and the odd ones m = 1, 3, ....  Each vector therefore
    has an exact parity, c[M + j] = +-c[M - j] bit for bit in a DVR.  The
    lowest k values of the two blocks are merged by a stable sort, the even
    block first on ties.  One block, H(dim), is ``eigensolve(H(dim), k)``.
    """
    blocks = _blocks(spec, rep)(dim)
    if len(blocks) == 1:
        return eigensolve(OperatorMatrix(blocks[0]), k)
    if not 1 <= k <= dim:
        raise ConfigError(f"k must be in [1, {dim}], got {k}")
    even, odd = blocks
    parts = [eigensolve(OperatorMatrix(b), min(k, b.shape[0])) for b in (even, odd) if b.size]
    energies = np.concatenate([part.energies for part in parts])
    vectors = np.zeros((dim, energies.size), dtype=np.result_type(*(part.eigvectors for part in parts)))
    m, start = even.shape[0] - 1, 0  # m: a DVR's centre row
    for part, sign, rows in zip(parts, (1.0, -1.0), (slice(0, None, 2), slice(1, None, 2))):
        v = part.eigvectors
        columns = slice(start, start + v.shape[1])
        start = columns.stop
        if isinstance(rep, HoRep):
            vectors[rows, columns] = v
            continue
        if sign > 0:
            vectors[m, columns] = v[0]
            v = v[1:]
        upper = v * math.sqrt(0.5)  # rows m + 1, ..., 2m
        vectors[m + 1 :, columns] = upper
        vectors[:m, columns] = sign * upper[::-1]
    order = np.argsort(energies, kind="stable")[:k]
    return Spectrum(energies[order], vectors[:, order], dim)


def _certificate_margin(n: int, norm: float, a0: float) -> float:
    """delta of :func:`_bounded_below` for a real n x n matrix b of Frobenius
    norm ``norm``: c (sqrt(2) norm + |a0|) / (1 - c), c = (n + 2)^2 eps.

    The symmetric matrix B of b's lower triangle has ||B||_2 <= ||B||_F <=
    sqrt(2) norm =: s.  Cholesky that runs to completion on the rounded
    B - sigma*I gives R^T R = B - sigma*I + E with |E| <= gamma_{n+1} |R^T||R|
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm 10.3; the bound does not depend on the order in which the inner
    products are summed, so blocked factorizations obey it too).  Since
    ||R||_F^2 = trace(R^T R), ||E||_2 <= (n + 2) eps sum_j |b_jj - sigma| <=
    (n + 2) eps n (s + |a0| + delta), the rounding of B - sigma*I included.
    The eigensolvers return eigenvalues of B + F with ||F||_2 <= n eps s
    (LAPACK's "modestly growing function of n" taken as n), and
    sigma = a0 + delta rounds by at most eps (|a0| + delta).  The three sum to
    at most delta.
    """
    c = (n + 2) ** 2 * np.finfo(float).eps
    return c * (math.sqrt(2.0) * norm + abs(a0)) / (1.0 - c)


def _bounded_below(b: np.ndarray, a0: float) -> bool:
    """Whether the lowest eigenvalue a solver computes for the symmetric matrix
    of the real b's lower triangle is proven >= a0, without computing it.

    One Cholesky factorization of B - (a0 + delta) I, delta from
    :func:`_certificate_margin`: if it succeeds, Sylvester's law of inertia
    puts every eigenvalue of B at or above a0 + delta - ||E||_2.  False proves
    nothing.  It runs as LAPACK's band Cholesky pbtrf with the full band.  On
    one BLAS thread that is as fast as potrf, but OpenBLAS runs potrf in
    parallel from n = 128: at n = 151 on a loaded 2-core Xeon (one BLAS
    thread / two) potrf took a median 0.14 / 0.43 ms and pbtrf 0.13 / 0.16 ms.
    """
    n = b.shape[0]
    # lower band storage in Fortran order: band[k, j] = b[i, j], i = j + k, at
    # position j n + k = i + j (n - 1).  One strided copy puts rows 1 to n - 1
    # of b there, each entry at its own position, and the upper-triangle
    # entries among them on positions with j + k >= n, which pbtrf never
    # reads; b[0, 0] goes to position 0.
    packed = np.empty(n * n)
    step = packed.itemsize
    packed[0] = b[0, 0]
    np.lib.stride_tricks.as_strided(packed[1:], (n - 1, n), (step, (n - 1) * step))[...] = b[1:]
    band = packed.reshape((n, n), order="F")
    # einsum, not np.linalg.norm: numpy's own BLAS runs dot in parallel from
    # 10^4 entries, and its threads then compete with those of LAPACK's BLAS;
    # an overflow gives an infinite margin, which proves nothing
    with np.errstate(over="ignore", invalid="ignore"):
        norm = math.sqrt(float(np.einsum("ij,ij->", b, b)))
    band[0] -= a0 + _certificate_margin(n, norm, a0)
    return scipy.linalg.lapack.dpbtrf(band, lower=True, overwrite_ab=True)[1] == 0


def _eigen_error(m: np.ndarray) -> float:
    """n eps sqrt(2) ||m||_F for an n x n gated matrix m: a bound on how far an
    eigenvalue a solver returns for the symmetric matrix of the lower triangle
    of any principal block of m lies from the exact one (the eigensolver
    error of :func:`_certificate_margin`, with ||B||_2 <= sqrt(2) ||m||_F)."""
    # einsum, not np.linalg.norm (see _bounded_below), and on views of m, so
    # no temporary the size of m; an overflow gives inf, which proves nothing
    with np.errstate(over="ignore", invalid="ignore"):
        squares = float(np.einsum("ij,ij->", m.real, m.real))
        if np.iscomplexobj(m):
            squares += float(np.einsum("ij,ij->", m.imag, m.imag))
    return m.shape[0] * np.finfo(float).eps * math.sqrt(2.0 * squares)


def size_solver(
    spec: CircuitSpec, rep: Representation, top: int, upto: int
) -> tuple[Callable[[int], np.ndarray], float | None]:
    """(solve, eta) for a sweep whose largest size is ``top``: solve(d) is the
    lowest min(upto, d-1)+1 eigenvalues at size d.

    The matrices of :func:`_blocks` are built and gated once, at ``top``, for
    a nested representation, and every size is solved on its block of them;
    any other builds them per size.  Where they are the even and odd blocks,
    each size merges the lowest values of its two blocks.

    A split solve for the ground level alone (upto == 0) solves first the
    block that held the ground level at the previous call (the even block at
    the first) for its lowest value a0, and the other block is solved only if
    :func:`_bounded_below` cannot prove that the value its solver would return
    is >= a0 (the parity blocks are real).  A passed certificate bounds that
    block's lowest eigenvalue by a0 + delta - ||E||_2, and delta covers the
    Cholesky backward error E and the block's own eigensolver error
    (:func:`_certificate_margin`), so the merge of both blocks' lowest values
    would pick a0 too: the values are those of the full two-block merge, bit
    for bit, in whatever order the sizes are solved.

    ``eta`` is None unless the representation is nested.  Then every matrix
    solved is a principal block of the gated matrices at ``top``, and eta
    bounds, for every value solve returns, the distance to the exact
    eigenvalue of the (merged) blocks' lower-triangle symmetric matrices;
    with a certified a0 the other block's exact lowest eigenvalue is >= a0.
    """
    blocks = _blocks(spec, rep)

    def solvers(d: int) -> tuple[list[np.ndarray], list[Callable[[int, int, int], np.ndarray]]]:
        matrices = [_solver_matrix(b) for b in blocks(d)]
        return matrices, [_block_solver(m) for m in matrices]

    nested = nested_start(rep, top, top) is not None
    shared = solvers(top) if nested else None
    eta = max(_eigen_error(m) for m in shared[0]) if nested else None
    held = 0  # the block that held the ground level at the previous call

    def solve(d: int) -> np.ndarray:
        nonlocal held
        start = nested_start(rep, top, d) if nested else 0
        matrices, solvers_d = shared if nested else solvers(d)
        k = min(upto, d - 1)
        if len(solvers_d) == 1:
            return solvers_d[0](start, d, k)
        # the blocks of H(d) lead those of H(top)
        half = ((d + 1) // 2, d // 2)
        if upto == 0 and half[1]:
            other = 1 - held
            a0 = solvers_d[held](0, half[held], 0)
            n = half[other]
            if _bounded_below(matrices[other][:n, :n], float(a0[0])):
                return a0
            b0 = solvers_d[other](0, n, 0)
            held = other if b0[0] < a0[0] else held
            parts = (a0, b0) if other else (b0, a0)
        else:
            parts = [block(0, n, min(k, n - 1)) for block, n in zip(solvers_d, half) if n]
        return np.sort(np.concatenate(parts))[: k + 1]

    return solve, eta


def eigenvalues(spec: CircuitSpec, rep: Representation, dim: int, upto: int) -> np.ndarray:
    """Lowest min(upto, dim-1)+1 eigenvalues at one size, by :func:`size_solver`."""
    return size_solver(spec, rep, dim, upto)[0](dim)


@lru_cache(maxsize=32)
def _oracle(spec: CircuitSpec) -> np.ndarray:
    """The read-only reference levels of a fluxonium or a transmon, from one
    :func:`size_solver` call.  Fluxonium: every eigenvalue of the LC-scale HO
    representation at size FLUXONIUM_ORACLE_DIM, its embedding size: the
    sweep engine's solve, so a parity-even fluxonium is solved as its two
    half-size blocks.  Transmon: the lowest TRANSMON_ORACLE_LEVELS levels of
    the charge basis at size TRANSMON_ORACLE_DIM, by the band solver's Sturm
    bisection (?sbevx, ABSTOL = 2 safmin): its Sturm counts are exact for
    off-diagonals perturbed by a few eps relative (Demmel, Applied Numerical
    Linear Algebra, sec. 5.3.4), so each level E is good to a few eps
    (|E| + E_J), not eps ||H|| ~ eps E_C dim^2: no refinement."""
    if spec.family is Family.FLUXONIUM:
        dim = levels = FLUXONIUM_ORACLE_DIM
        rep = HoRep(LengthScale.LC, dim)
    else:
        rep, dim, levels = charge_basis(), TRANSMON_ORACLE_DIM, TRANSMON_ORACLE_LEVELS
    energies = size_solver(spec, rep, dim, levels - 1)[0](dim)
    energies.flags.writeable = False
    return energies


def reference_energy(spec: CircuitSpec, level: int) -> float:
    """Converged reference energy of one level, in GHz.

    LC: the closed form sqrt(8 E_C E_L) (n + 1/2).  Fluxonium: the standard
    1001-state harmonic-oscillator diagonalization.  Transmon: the lowest 64
    levels of a 401-state charge basis, standing in for the exact Mathieu
    characteristic values.  ConfigError for a level the oracle does not hold.
    """
    if level < 0:
        raise ConfigError(f"level must be >= 0, got {level}")
    if spec.family is Family.LC:
        return math.sqrt(8.0 * spec.E_C * spec.E_L) * (level + 0.5)
    energies = _oracle(spec)
    if level >= energies.size:
        raise ConfigError(f"the {spec.family.value} reference holds {energies.size} levels, got level {level}")
    return float(energies[level])
