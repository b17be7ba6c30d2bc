"""Finite-difference baseline in the continuous-phase representation.

Centered stencils of arbitrary even accuracy order 2M are generated by
inverting the Taylor matrix of the surrounding grid points.  The Hamiltonian
is -4 E_C d^2/dtheta^2 plus the diagonal potential, with either hard-wall
(out-of-grid taps zeroed) or periodic (indices wrapped) boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .circuits import CircuitSpec, HamiltonianTerm, OperatorKind, terms
from .dvr import OperatorMatrix
from .errors import ConfigError


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
        if not 0.0 < self.spacing < math.inf:
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
    """Centered second-derivative stencil of 2M+1 points at unit spacing.

    Built by inverting the Taylor matrix F_jk = (j-M)^k / k! and reading the
    second-derivative row; divide by spacing^2 to apply on a real grid.
    """
    if order_M < 1:
        raise ConfigError(f"order_M must be >= 1, got {order_M}")
    npts = 2 * order_M + 1
    nodes = np.arange(-order_M, order_M + 1, dtype=float)
    powers = np.arange(npts)
    taylor = nodes[:, None] ** powers[None, :] / np.array(
        [math.factorial(k) for k in powers], dtype=float
    )
    if abs(np.linalg.det(taylor)) == 0.0:
        raise ConfigError("singular Taylor matrix")
    rhs = np.zeros(npts)
    rhs[2] = 1.0
    coeffs = np.linalg.solve(taylor.T, rhs)
    # the centered stencil is even in the offset; average out solver rounding
    # so the resulting matrices are exactly symmetric
    return 0.5 * (coeffs + coeffs[::-1])


def second_derivative_matrix(grid: FdGrid) -> np.ndarray:
    """Stencil matrix D2 such that D2 @ f approximates f'' * spacing^2."""
    M = grid.order_M
    coeffs = fd_coefficients(M)
    col = np.zeros(grid.dim)
    col[: M + 1] = coeffs[M:]
    if grid.boundary is Boundary.PERIODIC:
        col[grid.dim - M :] = coeffs[:M]
        return scipy.linalg.circulant(col)
    return scipy.linalg.toeplitz(col)


def _potential(spec: CircuitSpec, theta: np.ndarray) -> np.ndarray:
    v = np.zeros_like(theta)
    for term in terms(spec):
        v += _potential_term(term, theta)
    return v


def _potential_term(term: HamiltonianTerm, theta: np.ndarray) -> np.ndarray:
    if term.kind is OperatorKind.THETA_SQUARED:
        return term.coefficient * theta ** 2
    if term.kind is OperatorKind.COS_THETA:
        return term.coefficient * np.cos(theta + term.sign * 2.0 * np.pi * term.flux)
    if term.kind is OperatorKind.N_SQUARED:
        return np.zeros_like(theta)  # kinetic part, handled by the stencil
    if term.kind is OperatorKind.N_SHIFTED_SQUARED:
        if term.offset != 0.0:
            raise ConfigError(
                "finite differences support the transmon only at zero offset charge "
                "(nonzero N_g needs a first-derivative term)"
            )
        return np.zeros_like(theta)
    raise ConfigError(f"unsupported term kind {term.kind!r}")


def fd_hamiltonian(spec: CircuitSpec, grid: FdGrid) -> OperatorMatrix:
    """Hamiltonian -4 E_C D2 / spacing^2 + diag(V) on the phase grid."""
    d2 = second_derivative_matrix(grid)
    theta = grid.points()
    try:
        kinetic = -4.0 * spec.E_C / grid.spacing ** 2
    except (OverflowError, ZeroDivisionError):
        kinetic = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        h = kinetic * d2 + np.diag(_potential(spec, theta))
    if not np.isfinite(h).all():
        raise ConfigError(f"the Hamiltonian on a grid of spacing {grid.spacing!r} is not finite")
    return OperatorMatrix(h)
