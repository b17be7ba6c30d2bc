"""Sinc discrete variable representations of phase and charge number.

Four bases are supported: traditional (infinite-grid, truncated numerically)
and truncated (finite by construction) DVRs discretizing either the phase
theta or the Cooper-pair number N.  Grid spacings are exact rationals, with
phase spacings carrying an implicit factor of pi, so that integrality
conditions (e.g. 1/dN for the cosine tunneling bands) are decided exactly.

Operators that are functions of the discretized variable are diagonal
(the DVR diagonal approximation).  Moments of the conjugate variable use
closed-form infinite-grid elements for the traditional kinds and a centered
discrete Fourier transform for the truncated kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import ConfigError, json_int


@dataclass(frozen=True)
class Spacing:
    """Exact rational grid spacing; ``pi=True`` means the value is num/den * pi."""

    num: int
    den: int
    pi: bool = False

    def __post_init__(self):
        if self.num <= 0 or self.den <= 0:
            raise ConfigError(f"spacing must be positive, got {self.num}/{self.den}")
        try:
            value = self.value
        except OverflowError:
            value = math.inf
        if not 0.0 < value < math.inf:
            raise ConfigError(f"spacing {self.num}/{self.den} is not a positive double")

    @classmethod
    def of(cls, r, pi: bool = False) -> "Spacing":
        frac = Fraction(r)
        return cls(frac.numerator, frac.denominator, pi)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def value(self) -> float:
        v = self.num / self.den
        return v * math.pi if self.pi else v

    def to_dict(self) -> dict:
        return {"num": self.num, "den": self.den, "pi": self.pi}

    @classmethod
    def from_dict(cls, data: dict) -> "Spacing":
        try:
            num, den, pi = json_int(data["num"], "num"), json_int(data["den"], "den"), data.get("pi", False)
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad spacing descriptor {data!r}") from exc
        if not isinstance(pi, bool):
            raise ConfigError(f"spacing 'pi' must be true or false, got {pi!r}")
        return cls(num, den, pi)


class DvrKind(str, Enum):
    TRADITIONAL_PHASE = "traditional_phase"
    TRADITIONAL_CHARGE = "traditional_charge"
    TRUNCATED_PHASE = "truncated_phase"
    TRUNCATED_CHARGE = "truncated_charge"

    @property
    def is_phase(self) -> bool:
        return self in (DvrKind.TRADITIONAL_PHASE, DvrKind.TRUNCATED_PHASE)

    @property
    def is_truncated(self) -> bool:
        return self in (DvrKind.TRUNCATED_PHASE, DvrKind.TRUNCATED_CHARGE)


@dataclass(frozen=True)
class DvrBasis:
    """One sinc-DVR grid: 2M+1 points at x_alpha = alpha * spacing, alpha in [-M, M]."""

    kind: DvrKind
    spacing: Spacing
    M: int

    def __post_init__(self):
        if self.M < 0:
            raise ConfigError(f"M must be nonnegative, got {self.M}")

    @property
    def dim(self) -> int:
        return 2 * self.M + 1

    @property
    def spacing_value(self) -> float:
        return self.spacing.value

    @property
    def conjugate_bound(self) -> float:
        """N_max for phase kinds, theta_max for charge kinds."""
        return math.pi / self.spacing_value

    @property
    def conjugate_spacing(self) -> float:
        """Spacing of the conjugate grid of a truncated DVR (dTheta*dN = 2*pi/(2M+1))."""
        if not self.kind.is_truncated:
            raise ConfigError("conjugate grid exists only for truncated kinds")
        return 2.0 * math.pi / (self.dim * self.spacing_value)

    @property
    def weight(self) -> float:
        """Quadrature weight c_alpha = 1/spacing, identical on every point."""
        return 1.0 / self.spacing_value

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "spacing": self.spacing.to_dict(), "M": self.M}

    @classmethod
    def from_dict(cls, data: dict) -> "DvrBasis":
        try:
            return cls(DvrKind(data["kind"]), Spacing.from_dict(data["spacing"]), json_int(data["M"], "M"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad basis descriptor {data!r}") from exc


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense square matrix; Hermiticity is checked at the eigensolver."""

    entries: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.entries)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ConfigError(f"operator must be square, got shape {h.shape}")
        object.__setattr__(self, "entries", h)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def grid_points(basis: DvrBasis) -> np.ndarray:
    """Grid values x_alpha = alpha * spacing for alpha in [-M, M]."""
    return np.arange(-basis.M, basis.M + 1) * basis.spacing_value


def diag_of_discretized(basis: DvrBasis, f: Callable[[np.ndarray], np.ndarray]) -> OperatorMatrix:
    """Diagonal approximation: f of the discretized variable, evaluated on the grid."""
    values = np.asarray(f(grid_points(basis)), dtype=float)
    if not np.all(np.isfinite(values)):
        raise ConfigError("function is not finite at every grid point")
    return OperatorMatrix(np.diag(values))


def traditional_moment_elements(basis: DvrBasis, power: int, diff: np.ndarray) -> np.ndarray:
    """Closed-form infinite-grid element of the first or second conjugate moment
    of a traditional DVR, as a function of the index difference alpha - beta."""
    s = basis.spacing_value
    parity = np.where(diff % 2 == 0, 1.0, -1.0)
    safe = np.where(diff == 0, 1, diff)
    if power == 1:
        sign = 1.0 if basis.kind.is_phase else -1.0
        off = sign * 1j * parity / (s * safe)
        return np.where(diff == 0, 0.0 + 0.0j, off)
    off = 2.0 * parity / (s * s * safe * safe)
    diag = basis.conjugate_bound ** 2 / 3.0
    return np.where(diff == 0, diag, off).astype(complex)


def conj_moment_traditional(basis: DvrBasis, power: int) -> OperatorMatrix:
    """First or second moment of the conjugate variable in a traditional DVR.

    Phase kinds give N-hat and N-hat^2; charge kinds give theta-hat and
    theta-hat^2.  Entries are the infinite-grid closed forms placed in a
    finite (2M+1)^2 matrix, so a truncation error remains that shrinks with
    matrix size.
    """
    if basis.kind.is_truncated:
        raise ConfigError("conj_moment_traditional requires a traditional kind")
    if power not in (1, 2):
        raise ConfigError(f"power must be 1 or 2, got {power}")
    idx = np.arange(-basis.M, basis.M + 1)
    return OperatorMatrix(traditional_moment_elements(basis, power, idx[:, None] - idx[None, :]))


def conj_function_truncated(basis: DvrBasis, g: Callable[[np.ndarray], np.ndarray]) -> OperatorMatrix:
    """g of the conjugate variable in a truncated DVR, via the centered DFT.

    The truncated DVR's states and the conjugate eigenbasis are related by the
    unitary centered discrete Fourier transform F, so the represented operator
    is F^dag diag(g(y_n)) F with y_n = n * conjugate_spacing.  The result is
    circulant; only its first column is computed, by one FFT of length d.
    """
    return OperatorMatrix(scipy.linalg.circulant(truncated_column(basis, g)))


def truncated_column(basis: DvrBasis, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """First column of the circulant :func:`conj_function_truncated`, indexed by
    (alpha - beta) mod d."""
    if not basis.kind.is_truncated:
        raise ConfigError("conj_function_truncated requires a truncated kind")
    M, d = basis.M, basis.dim
    n = np.arange(-M, M + 1)
    values = np.asarray(g(n * basis.conjugate_spacing), dtype=float)
    if not np.all(np.isfinite(values)):
        raise ConfigError("function is not finite on the conjugate grid")
    # col[k] = sum_n values_n exp(+-2 pi i k n / d) / d for k = (alpha - beta)
    # mod d.  The exponent sign is fixed so phase kinds reproduce the direct
    # finite sum for N-hat and charge kinds the analogous sum for theta-hat;
    # ifftshift puts n = 0 first, so the sum over n is a DFT of length d.
    wrapped = np.fft.ifftshift(values)
    col = np.fft.fft(wrapped) / d if basis.kind.is_phase else np.fft.ifft(wrapped)
    # col[k] and conj(col[d-k]) are computed independently and can differ by a
    # rounding ulp; average so the analytically Hermitian result is exactly so.
    return 0.5 * (col + np.roll(col[::-1], 1).conj())


def conj_moment_truncated(basis: DvrBasis, power: int) -> OperatorMatrix:
    """First or second conjugate moment of a truncated DVR (DFT construction)."""
    if power not in (1, 2):
        raise ConfigError(f"power must be 1 or 2, got {power}")
    return conj_function_truncated(basis, lambda y: y ** power)


def cosine_band(basis: DvrBasis, A: float, sign: int = +1) -> tuple[int, complex]:
    """(k, u): cos(theta +/- 2*pi*A) in a charge DVR with integer k = 1/dN is u
    at (alpha, alpha + k) and conj(u) at (alpha + k, alpha)."""
    if basis.kind.is_phase:
        raise ConfigError("cosine_in_charge requires a charge kind")
    if sign not in (+1, -1):
        raise ConfigError(f"sign must be +1 or -1, got {sign}")
    frac = basis.spacing.fraction
    if basis.spacing.pi or frac.numerator != 1:
        raise ConfigError(
            f"cosine in a charge DVR needs integer 1/dN; got dN = {frac}"
            + (" * pi" if basis.spacing.pi else "")
        )
    return frac.denominator, 0.5 * np.exp(sign * 2j * np.pi * A)


def cosine_in_charge(basis: DvrBasis, A: float, sign: int = +1) -> OperatorMatrix:
    """cos(theta +/- 2*pi*A) in a charge DVR with integer 1/dN.

    The operator tunnels between grid points 1/dN apart, giving two bands of
    constant entries; the matrix is identical for the traditional and
    truncated charge kinds.
    """
    k, upper = cosine_band(basis, A, sign)
    d = basis.dim
    # For d <= k both bands fall outside the matrix and the tunneling term
    # contributes nothing (the index ranges below are empty).
    entries = np.zeros((d, d), dtype=complex)
    rows = np.arange(d - k)
    entries[rows, rows + k] = upper
    entries[rows + k, rows] = np.conj(upper)
    return OperatorMatrix(entries)


def sine_in_phase(basis: DvrBasis, A: float) -> OperatorMatrix:
    """sin(theta + 2*pi*A) in a phase DVR (diagonal approximation)."""
    if not basis.kind.is_phase:
        raise ConfigError("sine_in_phase requires a phase kind")
    return diag_of_discretized(basis, lambda th: np.sin(th + 2.0 * np.pi * A))


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
    fine_factor: int
    details: dict = field(default_factory=dict)


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
    return SelfCheckReport(
        interpolation_defect=interpolation_defect,
        overlap_defect=overlap_defect,
        fine_factor=fine_factor,
        details={"dim": d, "spacing": s},
    )
