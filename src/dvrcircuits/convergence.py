"""Matrix-size sweeps and the convergence metrics R and P.

For one (circuit, representation, grid) triple, a sweep records the signed
energy difference Delta_n(d) = E_rep(d) - E_ref for each sampled matrix
dimension d.  R is the first sampled size with |Delta_n| below the accuracy
threshold (1e-6 GHz by default); P is the plateau value of |Delta_n| at large
size, detected from the last three samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuits import CircuitSpec
from .errors import ConfigError
from .spectra import Representation, check_compatible, eigenvalues_by_size, reference_energy

DEFAULT_THRESHOLD_GHZ = 1e-6
PRECISION_FLOOR_GHZ = 1e-12
PLATEAU_BAND = 1.1


class Scale(str, Enum):
    ABSOLUTE = "absolute"
    LC_SCALED = "lc_scaled"


def default_sizes(largest: int = 301, stride: int = 1) -> tuple[int, ...]:
    """All odd dimensions from 3 to ``largest`` (optionally strided)."""
    return tuple(range(3, largest + 1, 2 * stride))


@dataclass(frozen=True)
class ConvergenceCurve:
    level: int
    sizes: tuple[int, ...]
    deltas: np.ndarray
    scale: Scale = Scale.ABSOLUTE

    def __post_init__(self):
        if len(self.sizes) != len(self.deltas):
            raise ConfigError("sizes and deltas must have equal length")
        if np.any(np.diff(self.sizes) <= 0):
            raise ConfigError("sizes must be strictly ascending")


@dataclass(frozen=True)
class SaturationResult:
    P: float
    sign: int
    saturated: bool


@dataclass(frozen=True)
class MetricsRecord:
    R: int | None
    P: float
    P_sign: int
    saturated: bool
    crossed_zero: bool


def energy_scale(spec: CircuitSpec) -> float:
    """sqrt(8 E_C E_L), the LC frequency used for scaled curves."""
    if spec.E_L is None:
        raise ConfigError("LC scaling requires an inductive energy")
    return math.sqrt(8.0 * spec.E_C * spec.E_L)


def sweep_levels(
    spec: CircuitSpec,
    rep: Representation,
    sizes: tuple[int, ...],
    levels: tuple[int, ...],
    scale: Scale = Scale.ABSOLUTE,
) -> list[ConvergenceCurve]:
    """Delta_n versus matrix size for every level from one eigensolve per size;
    the curve of level n samples only the sizes d > n, the ones that contain it.

    All sizes are solved in one call to :func:`spectra.eigenvalues_by_size`,
    which assembles a nested representation once, at the largest size.
    """
    sizes, levels = tuple(sizes), tuple(levels)
    if not sizes or not levels:
        raise ConfigError("empty size or level list")
    if any(s < 3 or s % 2 == 0 for s in sizes):
        raise ConfigError("sizes must be odd and >= 3")
    top = max(levels)
    if top >= max(sizes):
        raise ConfigError(f"level {top} not contained in the largest size {max(sizes)}")
    check_compatible(spec, rep)
    refs = [reference_energy(spec, n) for n in levels]
    spectra = eigenvalues_by_size(spec, rep, sizes, top)
    unit = energy_scale(spec) if scale is Scale.LC_SCALED else 1.0
    curves = []
    for n, ref in zip(levels, refs):
        kept = [i for i, d in enumerate(sizes) if d > n]
        deltas = np.array([spectra[i][n] - ref for i in kept]) / unit
        curves.append(ConvergenceCurve(n, tuple(sizes[i] for i in kept), deltas, scale))
    return curves


def sweep(
    spec: CircuitSpec,
    rep: Representation,
    sizes: tuple[int, ...],
    level: int = 0,
    scale: Scale = Scale.ABSOLUTE,
) -> ConvergenceCurve:
    """Delta_n versus matrix size for one representation and grid."""
    sizes = tuple(sizes)
    if sizes and level >= min(sizes):
        raise ConfigError(f"level {level} not contained in the smallest size {min(sizes)}")
    return sweep_levels(spec, rep, sizes, (level,), scale)[0]


def decoherence_R(curve: ConvergenceCurve, threshold: float = DEFAULT_THRESHOLD_GHZ) -> int | None:
    """First sampled size with |Delta| below the threshold, if any.

    First-crossing semantics: a transient dip counts even if the curve later
    saturates above the threshold.
    """
    if not threshold > 0:
        raise ConfigError(f"threshold must be positive, got {threshold}")
    below = np.abs(curve.deltas) < threshold
    hits = np.flatnonzero(below)
    return int(curve.sizes[hits[0]]) if hits.size else None


def saturation_P(curve: ConvergenceCurve) -> SaturationResult:
    """Plateau detection on the last three sampled |Delta| values.

    Saturated when the window spans less than a 10% band while sitting above
    the double-precision floor (a curve that merely reaches the floor has not
    saturated, its true plateau being unresolvable); a self-referenced,
    identically-zero window reports P = 0.  Otherwise P is the final |Delta|
    with saturated=False.
    """
    if len(curve.sizes) < 5:
        raise ConfigError("saturation needs at least 5 sampled sizes")
    window = np.abs(curve.deltas[-3:])
    final_sign = int(np.sign(curve.deltas[-1])) or 1
    if window.max() == 0.0:
        return SaturationResult(0.0, final_sign, True)
    if window.min() > PRECISION_FLOOR_GHZ and window.max() / window.min() < PLATEAU_BAND:
        return SaturationResult(float(np.median(window)), final_sign, True)
    return SaturationResult(float(window[-1]), final_sign, False)


def metrics(curve: ConvergenceCurve, threshold: float = DEFAULT_THRESHOLD_GHZ) -> MetricsRecord:
    sat = saturation_P(curve)
    signs = np.sign(curve.deltas)
    nonzero = signs[signs != 0]
    crossed = bool(nonzero.size and np.any(nonzero != nonzero[0]))
    return MetricsRecord(
        R=decoherence_R(curve, threshold),
        P=sat.P,
        P_sign=sat.sign,
        saturated=sat.saturated,
        crossed_zero=crossed,
    )
