"""Harmonic-oscillator basis operators and the standard fluxonium baseline.

The phase and charge operators are tridiagonal in the number basis once a
length scale theta0 is fixed:

    theta = (theta0 / sqrt(2)) (a_dag + a)
    N     = (i / (sqrt(2) theta0)) (a_dag - a)

theta^2 and N^2 are pentadiagonal with closed-form elements, given as their
bands at the requested size.  Functions of theta (the cosine term) are the
one place the embedding is used: they are evaluated in a large embedding
space and truncated afterwards, so every matrix size is a sub-matrix of the
same embedded operator.  theta couples only states of opposite parity, so in
(even, odd) order it is [[0, B^T], [B, 0]] with B bidiagonal, and
cos(theta) is block diagonal with the blocks cos(sqrt(B^T B)) and
cos(sqrt(B B^T)), sin(theta) off-diagonal with the block
B sin(sqrt(B^T B)) / sqrt(B^T B) (Golub & Kahan, SIAM J. Numer. Anal. B 2,
205 (1965)).  Both come from the eigendecompositions of the two half-size
tridiagonals B^T B and B B^T, built once per length scale and embedding.
:func:`cos_blocks` gives cos(theta + 2*pi*A) as its parity blocks, and
:func:`from_parity_blocks` interleaves parity blocks into the matrix on the
number states: the one form in which a Hamiltonian term leaves this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .circuits import CircuitSpec, Family
from .dvr import OperatorMatrix
from .errors import ConfigError

DEFAULT_EMBED_DIM = 1001


class LengthScale(str, Enum):
    LC = "lc"
    PLASMA = "plasma"


@dataclass(frozen=True)
class HoBasis:
    theta0: float
    dim: int
    embed_dim: int = DEFAULT_EMBED_DIM

    def __post_init__(self):
        if not 0.0 < self.theta0 < math.inf:
            raise ConfigError(f"theta0 must be finite and positive, got {self.theta0}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.embed_dim < self.dim:
            raise ConfigError(f"embed_dim {self.embed_dim} < dim {self.dim}")


def length_scale(spec: CircuitSpec, which: LengthScale) -> float:
    """theta0 for the LC frequency or the plasma frequency of a circuit."""
    if spec.family is Family.TRANSMON:
        raise ConfigError("the transmon has no inductive length scale")
    if which is LengthScale.LC:
        return (8.0 * spec.E_C / spec.E_L) ** 0.25
    if spec.E_J is None:
        raise ConfigError("plasma length scale requires a Josephson energy")
    return (math.sqrt(8.0 * spec.E_C * spec.E_J) / spec.E_L) ** 0.5


def _ladder_offdiag(dim: int) -> np.ndarray:
    return np.sqrt(np.arange(1, dim) / 2.0)


def quadratic_bands(basis: HoBasis) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """((diagonal, +-2 band) of theta^2, (diagonal, +-2 band) of N^2) at dim,
    the only nonzero bands of either.

    In the number basis, with s_m = sqrt((m + 1)(m + 2)) / 2,

        theta^2 = theta0^2 [(m + 1/2) on the diagonal, s_m on the +-2 bands]
        N^2     = [(m + 1/2), -s_m] / theta0^2,

    the exact infinite-basis elements, so no edge corruption from squaring a
    truncated ladder operator arises.
    """
    m = np.arange(basis.dim, dtype=float)
    diag = m + 0.5
    s = 0.5 * np.sqrt((m[:-2] + 1.0) * (m[:-2] + 2.0))
    t2 = basis.theta0 * basis.theta0
    return (t2 * diag, t2 * s), (diag / t2, -s / t2)


def _sqrt_eigh(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, v): the positive semidefinite tridiagonal T = (diag, off) is
    v diag(sigma^2) v^T, sigma >= 0 (a rounded negative eigenvalue gives 0)."""
    if not diag.size:
        return np.zeros(0), np.zeros((0, 0))
    lam, v = eigh_tridiagonal(diag, off)
    return np.sqrt(np.maximum(lam, 0.0)), v


@lru_cache(maxsize=8)
def _embedded_blocks(theta0: float, embed_dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos theta on the even states, cos theta on the odd states, sin theta
    from the even to the odd states) for theta in embed_dim states, read-only.

    B = theta[1::2, 0::2] has B[j, j] = b_j = <2j+1|theta|2j> and
    B[j, j + 1] = c_j = <2j+1|theta|2j+2>, so B^T B and B B^T are
    tridiagonal.  With B^T B = V diag(sigma^2) V^T the sine block is
    (B V) diag(sin(sigma) / sigma) V^T, and B V is two scaled rows of V.
    """
    e = theta0 * _ladder_offdiag(embed_dim)  # e[m - 1] = <m - 1|theta|m>
    b, c = e[0::2], e[1::2]
    n_odd = b.size
    even_diag = np.zeros(embed_dim - n_odd)
    with np.errstate(over="ignore"):
        even_diag[:n_odd] += b * b
        even_diag[1 : c.size + 1] += c * c
        odd_diag = b * b
        odd_diag[: c.size] += c * c
    if not (np.isfinite(even_diag).all() and np.isfinite(odd_diag).all()):
        raise ConfigError(f"theta^2 is not finite in {embed_dim} states at theta0 = {theta0!r}")
    sigma_even, v_even = _sqrt_eigh(even_diag, b[: c.size] * c)
    sigma_odd, v_odd = _sqrt_eigh(odd_diag, c[: n_odd - 1] * b[1:])
    bv = b[:, None] * v_even[:n_odd]
    bv[: c.size] += c[:, None] * v_even[1 : c.size + 1]
    sinc = np.divide(np.sin(sigma_even), sigma_even, out=np.ones_like(sigma_even), where=sigma_even > 0.0)
    blocks = (
        (v_even * np.cos(sigma_even)) @ v_even.T,
        (v_odd * np.cos(sigma_odd)) @ v_odd.T,
        (bv * sinc) @ v_even.T,
    )
    for block in blocks:
        block.flags.writeable = False
    return blocks


def cos_blocks(basis: HoBasis, A: float) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(even, odd, off): the blocks of cos(theta + 2*pi*A) =
    cos(2 pi A) cos(theta) - sin(2 pi A) sin(theta) on the even states
    m = 0, 2, ... and the odd states m = 1, 3, ... of dim, and from the even
    states to the odd ones; the block from the odd states to the even ones is
    off's transpose.  Where 2A is an integer, cos(2 pi A) is exactly +-1 and
    off is None: the entries between the parities are exactly 0."""
    even, odd, sin = _embedded_blocks(basis.theta0, basis.embed_dim)
    n_even, n_odd = (basis.dim + 1) // 2, basis.dim // 2
    twice = float(2 * A)
    if twice.is_integer():
        c, off = (-1.0 if twice % 2 else 1.0), None
    else:
        c, off = math.cos(2.0 * math.pi * A), -math.sin(2.0 * math.pi * A) * sin[:n_odd, :n_even]
    return c * even[:n_even, :n_even], c * odd[:n_odd, :n_odd], off


def from_parity_blocks(even: np.ndarray, odd: np.ndarray, off: np.ndarray | None = None) -> np.ndarray:
    """The matrix on the number states whose blocks on the even states, the
    odd states and from the even states to the odd ones are even, odd and off
    (None: zero), symmetric between the parities."""
    dim = even.shape[0] + odd.shape[0]
    h = np.zeros((dim, dim))
    h[0::2, 0::2], h[1::2, 1::2] = even, odd
    if off is not None:
        h[1::2, 0::2] = off
        h[0::2, 1::2] = off.T
    return h


def cos_in_ho(basis: HoBasis, A: float) -> OperatorMatrix:
    """cos(theta + 2*pi*A) on dim states, from its parity blocks
    (:func:`cos_blocks`).  Read-only."""
    c = from_parity_blocks(*cos_blocks(basis, A))
    c.flags.writeable = False
    return OperatorMatrix(c)
