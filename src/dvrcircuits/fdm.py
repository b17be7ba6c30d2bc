"""Finite-difference baseline in the continuous-phase representation.

Centered stencils of even accuracy order 2M take Fornberg's closed form
(Math. Comp. 51, 699 (1988)), which tends to minus the phase DVR's N^2 column
(Colbert & Miller, J. Chem. Phys. 96, 1982 (1992)) as M grows.  The Hamiltonian
is -c d^2/dtheta^2 for the circuit's term c N^2 (c = 4 E_C), the Toeplitz
matrix of the stencil column, plus the potential on the grid, with either
hard-wall (out-of-grid taps zeroed) or periodic (taps wrapped into the column)
boundaries.  It is banded, so ``spectra._blocks``, the one route to what a
solve reads, passes it whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np
import scipy.linalg

from .circuits import CircuitSpec, OperatorKind, terms
from .dvr import OperatorMatrix
from .errors import ConfigError, is_finite


class Boundary(str, Enum):
    BOUNDED = "bounded"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class FdGrid:
    spacing: float
    half_points: int
    order_M: int = 1
    boundary: Boundary = Boundary.BOUNDED

    def __post_init__(self):
        if not (is_finite(self.spacing) and self.spacing > 0.0):
            raise ConfigError(f"spacing must be finite and positive, got {self.spacing}")
        if self.half_points < 1:
            raise ConfigError(f"half_points must be >= 1, got {self.half_points}")
        if self.order_M < 1:
            raise ConfigError(f"order_M must be >= 1, got {self.order_M}")
        if self.order_M > self.half_points:
            raise ConfigError("stencil half-width exceeds grid half-size")
        if self.boundary is Boundary.PERIODIC:
            required = 2.0 * math.pi / self.dim
            if abs(self.spacing - required) > 1e-12 * required:
                raise ConfigError(
                    f"periodic grid needs spacing 2*pi/{self.dim}, got {self.spacing!r}"
                )

    @property
    def dim(self) -> int:
        return 2 * self.half_points + 1

    def points(self) -> np.ndarray:
        return np.arange(-self.half_points, self.half_points + 1) * self.spacing


def fd_coefficients(order_M: int) -> np.ndarray:
    """Centered second-derivative stencil of 2M+1 points at unit spacing, for
    offsets -M..M: c_{+-k} = 2 (-1)^(k+1) (M!)^2 / (k^2 (M-k)! (M+k)!) and
    c_0 = -2 sum_k c_k, each computed exactly (c_k from c_(k-1) by their ratio)
    and rounded once.  Divide by spacing^2 to apply on a real grid.
    """
    if order_M < 1:
        raise ConfigError(f"order_M must be >= 1, got {order_M}")
    M = order_M
    taps = [Fraction(2 * M, M + 1)]
    for k in range(2, M + 1):
        taps.append(taps[-1] * Fraction(-(k - 1) ** 2 * (M - k + 1), k * k * (M + k)))
    side = [float(c) for c in taps]
    return np.array([*side[::-1], float(-2 * sum(taps)), *side])


def second_derivative_matrix(grid: FdGrid) -> np.ndarray:
    """Stencil matrix D2 such that D2 @ f approximates f'' * spacing^2: the
    Toeplitz matrix of the stencil column, which on a periodic grid holds the
    wrapped taps too (a symmetric circulant is its own Toeplitz matrix)."""
    M = grid.order_M
    coeffs = fd_coefficients(M)
    col = np.zeros(grid.dim)
    col[: M + 1] = coeffs[M:]
    if grid.boundary is Boundary.PERIODIC:
        col[grid.dim - M :] = coeffs[:M]
    return scipy.linalg.toeplitz(col)


def fd_hamiltonian(spec: CircuitSpec, grid: FdGrid) -> OperatorMatrix:
    """Hamiltonian -c D2 / spacing^2 + diag(V) on the phase grid, for the
    term c N^2 and the potential V of ``terms(spec)``."""
    theta = grid.points()
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.zeros_like(theta)
        for term in terms(spec):
            if term.kind is OperatorKind.THETA_SQUARED:
                v += term.coefficient * theta ** 2
            elif term.kind is OperatorKind.COS_THETA:
                v += term.coefficient * np.cos(theta + 2.0 * np.pi * term.flux)
            elif term.offset != 0.0:  # the kinetic term: the stencil holds it at N_g = 0 only
                raise ConfigError(
                    "finite differences support the transmon only at zero offset charge "
                    "(nonzero N_g needs a first-derivative term)"
                )
            else:
                try:
                    kinetic = -term.coefficient / grid.spacing ** 2
                except (OverflowError, ZeroDivisionError):
                    kinetic = math.inf
        h = second_derivative_matrix(grid)
        h *= kinetic
        h.flat[:: grid.dim + 1] += v
    if not np.isfinite(h).all():
        raise ConfigError(f"the Hamiltonian on a grid of spacing {grid.spacing!r} is not finite")
    return OperatorMatrix(h)
