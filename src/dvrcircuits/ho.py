"""Harmonic-oscillator basis operators and the standard fluxonium baseline.

The phase and charge operators are tridiagonal in the number basis once a
length scale theta0 is fixed:

    theta = (theta0 / sqrt(2)) (a_dag + a)
    N     = (i / (sqrt(2) theta0)) (a_dag - a)

theta^2 and N^2 are pentadiagonal with closed-form elements, written at the
requested size.  Functions of theta (the cosine term) are the one place the
embedding is used: they are evaluated by eigendecomposing theta in a large
embedding space and truncating afterwards, so every matrix size is a
sub-matrix of the same embedded operator.
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


def ho_operators(basis: HoBasis) -> tuple[OperatorMatrix, OperatorMatrix]:
    """(theta, N) as dim x dim tridiagonal matrices, normalized so [theta, N] = i."""
    if basis.dim < 2:
        raise ConfigError("ho_operators needs dim >= 2")
    off = _ladder_offdiag(basis.dim)
    theta = np.diag(basis.theta0 * off, 1) + np.diag(basis.theta0 * off, -1)
    n = np.diag(-1j * off / basis.theta0, 1) + np.diag(1j * off / basis.theta0, -1)
    return OperatorMatrix(theta), OperatorMatrix(n)


def _pentadiagonal(diag: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """Symmetric matrix with diag on the diagonal and off2 on the +-2 bands."""
    d = diag.shape[0]
    h = np.zeros((d, d))
    i = np.arange(d - 2)
    h[i, i + 2] = h[i + 2, i] = off2
    np.fill_diagonal(h, diag)
    return h


def quadratic_operators(basis: HoBasis) -> tuple[OperatorMatrix, OperatorMatrix]:
    """(theta^2, N^2) with the exact infinite-basis elements, truncated to dim.

    In the number basis, with s_m = sqrt((m + 1)(m + 2)) / 2,

        theta^2 = theta0^2 [(m + 1/2) on the diagonal, s_m on the +-2 bands]
        N^2     = [(m + 1/2), -s_m] / theta0^2,

    so no edge corruption from squaring a truncated ladder operator arises.
    """
    m = np.arange(basis.dim, dtype=float)
    diag = m + 0.5
    s = 0.5 * np.sqrt((m[:-2] + 1.0) * (m[:-2] + 2.0))
    t2 = basis.theta0 * basis.theta0
    theta2 = _pentadiagonal(t2 * diag, t2 * s)
    n2 = _pentadiagonal(diag / t2, -s / t2)
    return OperatorMatrix(theta2), OperatorMatrix(n2)


@lru_cache(maxsize=8)
def _embedded_cos(theta0: float, embed_dim: int, A: float) -> np.ndarray:
    w, u = eigh_tridiagonal(np.zeros(embed_dim), theta0 * _ladder_offdiag(embed_dim))
    c = (u * np.cos(w + 2.0 * np.pi * A)) @ u.T
    c.flags.writeable = False
    return c


def cos_in_ho(basis: HoBasis, A: float) -> OperatorMatrix:
    """cos(theta + 2*pi*A), built in embed_dim states and truncated to dim."""
    c = _embedded_cos(basis.theta0, basis.embed_dim, A)[: basis.dim, : basis.dim]
    return OperatorMatrix(c)
