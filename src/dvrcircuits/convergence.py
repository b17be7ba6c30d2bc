"""Matrix-size sweeps and the convergence metrics R and P.

For one (circuit, representation, grid) triple, a sweep records the signed
energy difference Delta_n(d) = E_rep(d) - E_ref for each sampled matrix
dimension d.  R is the first sampled size with |Delta_n| below the accuracy
threshold (1e-6 GHz by default); P is the plateau value of |Delta_n| at large
size, detected from the last three samples.

For a nested representation, where H(d) is a principal block of H(d + 2),
Cauchy interlacing makes every exact Delta_n(d) non-increasing in d, and
:func:`level_metrics` finds R by bisection and P from the last three sizes
(:func:`bisect_metrics`), accepting the result only where the eigensolver
error bound proves it equal to that of the full sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .circuits import CircuitSpec
from .errors import ConfigError, is_integer
from .spectra import Representation, check_compatible, reference_energy, size_solver

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


def _checked(
    spec: CircuitSpec, rep: Representation, sizes: tuple[int, ...], levels: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    sizes, levels = tuple(sizes), tuple(levels)
    if not sizes or not levels:
        raise ConfigError("empty size or level list")
    if not all(map(is_integer, sizes + levels)):
        raise ConfigError(f"sizes and levels must be integers, got sizes {sizes} and levels {levels}")
    if any(s < 3 or s % 2 == 0 for s in sizes):
        raise ConfigError("sizes must be odd and >= 3")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ConfigError("sizes must be strictly ascending")
    top = max(levels)
    if top >= max(sizes):
        raise ConfigError(f"level {top} not contained in the largest size {max(sizes)}")
    check_compatible(spec, rep)
    return sizes, levels


def _unit(spec: CircuitSpec, scale: Scale) -> float:
    return energy_scale(spec) if scale is Scale.LC_SCALED else 1.0


def _level_curve(
    level: int, ref: float, sizes: tuple[int, ...], spectra: list[np.ndarray], unit: float
) -> ConvergenceCurve:
    kept = [i for i, d in enumerate(sizes) if d > level]
    deltas = np.array([spectra[i][level] - ref for i in kept]) / unit
    return ConvergenceCurve(level, tuple(sizes[i] for i in kept), deltas)


def sweep_levels(
    spec: CircuitSpec,
    rep: Representation,
    sizes: tuple[int, ...],
    levels: tuple[int, ...],
    scale: Scale = Scale.ABSOLUTE,
) -> list[ConvergenceCurve]:
    """Delta_n versus matrix size for every level from one eigensolve per size;
    the curve of level n samples only the sizes d > n, the ones that contain it.

    All sizes are solved by one :func:`spectra.size_solver` built at the
    largest size, which assembles a nested representation once, there.
    """
    sizes, levels = _checked(spec, rep, sizes, levels)
    refs = [reference_energy(spec, n) for n in levels]
    solve, _ = size_solver(spec, rep, max(sizes), max(levels))
    spectra = [solve(d) for d in sizes]
    unit = _unit(spec, scale)
    return [_level_curve(n, ref, sizes, spectra, unit) for n, ref in zip(levels, refs)]


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


def _check_threshold(threshold: float) -> None:
    if not threshold > 0:
        raise ConfigError(f"threshold must be positive, got {threshold}")


def decoherence_R(curve: ConvergenceCurve, threshold: float = DEFAULT_THRESHOLD_GHZ) -> int | None:
    """First sampled size with |Delta| below the threshold, if any.

    First-crossing semantics: a transient dip counts even if the curve later
    saturates above the threshold.
    """
    _check_threshold(threshold)
    below = np.abs(curve.deltas) < threshold
    hits = np.flatnonzero(below)
    return int(curve.sizes[hits[0]]) if hits.size else None


def _plateau(last_three: np.ndarray) -> SaturationResult:
    window = np.abs(last_three)
    final_sign = int(np.sign(last_three[-1])) or 1
    if window.max() == 0.0:
        return SaturationResult(0.0, final_sign, True)
    if window.min() > PRECISION_FLOOR_GHZ and window.max() / window.min() < PLATEAU_BAND:
        return SaturationResult(float(np.median(window)), final_sign, True)
    return SaturationResult(float(window[-1]), final_sign, False)


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
    return _plateau(curve.deltas[-3:])


def metrics(curve: ConvergenceCurve, threshold: float = DEFAULT_THRESHOLD_GHZ) -> MetricsRecord:
    """R, P and the flags of one curve.  ``crossed_zero`` is a sign change
    among the *computed* nonzero deltas, so on a curve that reaches the
    eigensolver's roundoff it can follow that roundoff."""
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


def bisect_metrics(
    sizes: tuple[int, ...], delta: Callable[[int], float], threshold: float, eta: float
) -> MetricsRecord | None:
    """:func:`metrics` of the curve delta(0), ..., delta(len(sizes) - 1),
    reading about log2(len(sizes)) + 4 of its values, or None where that
    cannot be proven.

    Assumes that each computed delta(i) lies within ``eta`` of an exact value
    t(i) that does not increase with i.  Then R is found by bisection on
    delta < threshold, and accepted only if delta is >= threshold + 2 eta
    just before R (so t >= threshold + eta there, and every earlier delta is
    >= threshold) and > -threshold at R.  R is None if delta(last) >=
    threshold + 2 eta or delta(0) <= -threshold - 2 eta, or if the curve
    steps from >= threshold + 2 eta to <= -threshold - 2 eta between two
    neighbours (every delta then stays outside the band |delta| <
    threshold).  ``crossed_zero`` is True if the two ends are nonzero with
    opposite signs, and False if both lie more than 2 eta from zero on the
    same side (every delta then shares their sign).  P and its flags come
    from the last three values, as in :func:`saturation_P`.  Needs at least
    5 sizes.
    """
    _check_threshold(threshold)
    last = len(sizes) - 1
    first_d, last_d = delta(0), delta(last)
    margin = 2.0 * eta
    if first_d < threshold:
        if first_d > -threshold:
            r = sizes[0]
        elif first_d <= -threshold - margin:
            r = None
        else:
            return None
    elif last_d >= threshold:
        if not last_d >= threshold + margin:
            return None
        r = None
    else:  # delta(lo) >= threshold > delta(hi)
        lo, hi = 0, last
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if delta(mid) < threshold:
                hi = mid
            else:
                lo = mid
        if not delta(lo) >= threshold + margin:
            return None
        if delta(hi) > -threshold:
            r = sizes[hi]
        elif delta(hi) <= -threshold - margin:
            r = None  # the curve jumps across the band between lo and hi
        else:
            return None
    ends = np.sign([first_d, last_d])
    if ends[0] * ends[1] < 0:
        crossed = True
    elif ends[0] == ends[1] != 0 and min(abs(first_d), abs(last_d)) > margin:
        crossed = False
    else:
        return None
    sat = _plateau(np.array([delta(last - 2), delta(last - 1), last_d]))
    return MetricsRecord(R=r, P=sat.P, P_sign=sat.sign, saturated=sat.saturated, crossed_zero=crossed)


@dataclass(frozen=True)
class LevelMetrics:
    """The metrics of one level and how they were found: ``path`` is
    "bisected" or "full", ``sizes_solved`` the number of sizes whose
    eigenvalues the record was read from."""

    level: int
    record: MetricsRecord
    path: str
    sizes_solved: int


def level_metrics(
    spec: CircuitSpec,
    rep: Representation,
    sizes: tuple[int, ...],
    levels: tuple[int, ...],
    threshold: float = DEFAULT_THRESHOLD_GHZ,
    scale: Scale = Scale.ABSOLUTE,
) -> list[LevelMetrics]:
    """:func:`metrics` of every curve of :func:`sweep_levels`, equal field by
    field, solving as few sizes as a nested representation allows.

    For a nested representation (:func:`spectra.size_solver` returns an
    error bound eta), each level is tried with
    :func:`bisect_metrics` first; every size is solved at most once, for
    max(levels) + 1 values shared by all levels.  H(d) is a principal block
    of H(d_max), and so are its parity blocks, so by Cauchy interlacing each
    exact eigenvalue does not increase with d.  A computed delta lies within
    (4 eta + 2 eps |E_ref|) / unit of that exact sequence, shifted by the one
    reference and scaled by the one unit: eta bounds the eigensolver error
    and eps |E| <= eta, and the subtraction and the division each round by
    at most eps/2 of |E - E_ref|.  A level the bisection cannot settle, and
    every level of any other representation, is solved at every size and
    passed to :func:`metrics`.
    """
    sizes, levels = _checked(spec, rep, sizes, levels)
    refs = [reference_energy(spec, n) for n in levels]
    solve, eta = size_solver(spec, rep, max(sizes), max(levels))
    unit = _unit(spec, scale)
    solved: dict[int, np.ndarray] = {}

    def values(i: int) -> np.ndarray:
        if i not in solved:
            solved[i] = solve(sizes[i])
        return solved[i]

    out = []
    for n, ref in zip(levels, refs):
        kept = [i for i, d in enumerate(sizes) if d > n]
        record = None
        if eta is not None and len(kept) >= 5:
            read = set()

            def delta(j: int) -> float:
                read.add(j)
                return (values(kept[j])[n] - ref) / unit

            bound = (4.0 * eta + 2.0 * np.finfo(float).eps * abs(ref)) / unit
            record = bisect_metrics(tuple(sizes[i] for i in kept), delta, threshold, bound)
        if record is not None:
            out.append(LevelMetrics(n, record, "bisected", len(read)))
            continue
        curve = _level_curve(n, ref, sizes, [values(i) for i in range(len(sizes))], unit)
        out.append(LevelMetrics(n, metrics(curve, threshold), "full", len(curve.sizes)))
    return out
