import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dvrcircuits import convergence
from dvrcircuits.circuits import CircuitSpec
from dvrcircuits.convergence import (
    ConvergenceCurve,
    Scale,
    bisect_metrics,
    decoherence_R,
    default_sizes,
    energy_scale,
    level_metrics,
    metrics,
    saturation_P,
    sweep,
    sweep_levels,
)
from dvrcircuits.dvr import DvrKind, Spacing
from dvrcircuits.errors import ConfigError
from dvrcircuits.fdm import Boundary
from dvrcircuits.ho import LengthScale
from dvrcircuits.spectra import (
    DvrRep,
    FdRep,
    HoRep,
    _blocks,
    _solver_matrix,
    _solves_banded,
    assemble,
    charge_basis,
    half_bandwidth,
    reference_energy,
    splits_by_parity,
)

LC = CircuitSpec.lc(1.0, 1.0)
FLUXONIUM = CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.5)
TRANSMON = CircuitSpec.transmon(0.2, 10.0, 0.5)
CHARGE_LIMIT = CircuitSpec.transmon(5.0, 5.0, 0.5)


def _curve(deltas, level=0):
    deltas = np.asarray(deltas, dtype=float)
    sizes = tuple(range(3, 3 + 2 * len(deltas), 2))
    return ConvergenceCurve(level, sizes, deltas)


def test_default_sizes():
    assert default_sizes(9) == (3, 5, 7, 9)
    assert default_sizes(301)[-1] == 301
    assert default_sizes(21, stride=2) == (3, 7, 11, 15, 19)


def test_curve_validation():
    with pytest.raises(ConfigError):
        ConvergenceCurve(0, (3, 3, 5), np.zeros(3))
    with pytest.raises(ConfigError):
        ConvergenceCurve(0, (3, 5), np.zeros(3))


def test_sweep_validation():
    rep = DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 4))
    with pytest.raises(ConfigError):
        sweep(LC, rep, (), 0)
    with pytest.raises(ConfigError):
        sweep(LC, rep, (4, 6), 0)
    with pytest.raises(ConfigError):
        sweep(LC, rep, (3, 5), level=3)


def test_first_crossing_semantics():
    curve = _curve([1e-3, 1e-7, 1e-5, 1e-7])
    assert decoherence_R(curve) == 5  # transient dip counts


def test_R_absent_when_never_below():
    assert decoherence_R(_curve([1e-3, 1e-4, 1e-4, 1e-4])) is None


def test_R_monotone_in_threshold():
    rng = np.random.default_rng(7)
    for _ in range(50):
        curve = _curve(10.0 ** rng.uniform(-9, 0, size=12))
        last = None
        for t in (1e-8, 1e-6, 1e-4, 1e-2):
            r = decoherence_R(curve, t)
            if last is not None and r is not None:
                assert last is None or r <= last
            last = r


def test_plateau_detection():
    sat = saturation_P(_curve([1.0, 1e-2, 1e-7, 1.02e-7, 0.99e-7]))
    assert sat.saturated
    assert np.isclose(sat.P, 1e-7)
    assert sat.sign == 1


def test_no_plateau_reports_final_value():
    sat = saturation_P(_curve([1.0, 1e-2, 1e-4, 1e-6, 1e-8]))
    assert not sat.saturated
    assert np.isclose(sat.P, 1e-8)


def test_floor_limited_curve_not_saturated():
    sat = saturation_P(_curve([1e-3, 1e-7, 3e-14, -5e-14, 4e-14]))
    assert not sat.saturated


def test_identically_zero_curve():
    sat = saturation_P(_curve([0.0] * 6))
    assert sat.saturated and sat.P == 0.0


def test_crossed_zero_flag():
    assert metrics(_curve([1e-3, -1e-4, 1e-5, 1e-5, 1e-5])).crossed_zero
    assert not metrics(_curve([1e-3, 1e-4, 1e-5, 1e-5, 1e-5])).crossed_zero


def test_saturation_needs_five_points():
    with pytest.raises(ConfigError):
        saturation_P(_curve([1.0, 0.5, 0.25]))


def test_lc_flat_category():
    rep = DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(3, 2))
    curve = sweep(LC, rep, default_sizes(41), 0, Scale.LC_SCALED)
    m = metrics(curve, 1e-6 / energy_scale(LC))
    assert m.R is None
    # flat: spread over the second half of the curve is tiny versus its level
    tail = np.abs(curve.deltas[len(curve.deltas) // 2:])
    assert (tail.max() - tail.min()) < 1e-6 * tail.min()


def test_lc_converging_category():
    rep = DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 4))
    curve = sweep(LC, rep, default_sizes(61), 0, Scale.LC_SCALED)
    assert decoherence_R(curve, 1e-6 / energy_scale(LC)) == 19


def test_lc_scaled_deltas():
    rep = DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 4))
    sizes = default_sizes(11)
    absolute = sweep(LC, rep, sizes, 0).deltas
    scaled = sweep(LC, rep, sizes, 0, Scale.LC_SCALED).deltas
    assert np.allclose(absolute / math.sqrt(8.0), scaled)


def test_fluxonium_ho_monotone_without_saturation():
    curve = sweep(FLUXONIUM, HoRep(LengthScale.LC), default_sizes(151), 0)
    mags = np.abs(curve.deltas)
    # strictly improving until the double-precision floor takes over
    above_floor = mags > 1e-11
    assert np.all(np.diff(mags[above_floor]) < 0)
    assert not saturation_P(curve).saturated


def test_lc_traditional_energies_monotone_at_moderate_grids():
    # raw energies decrease monotonically with matrix size at dN in {1/4, 1/5}
    from dvrcircuits.spectra import eigenvalues

    for den in (4, 5):
        rep = DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, den))
        energies = np.array([eigenvalues(LC, rep, d, 0)[0] for d in default_sizes(41)])
        # once the error reaches the double-precision floor the ordering is
        # rounding noise; assert monotonicity only above it
        above_floor = energies - math.sqrt(2.0) > 1e-11
        assert np.all(np.diff(energies[above_floor]) <= 0)


def test_truncated_traditional_P_agreement():
    # Same kind and grid saturate to nearly identical precision where the
    # plateau sits above the double-precision floor.
    rep_a = DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(9, 20))
    rep_b = DvrRep(DvrKind.TRUNCATED_CHARGE, Spacing(9, 20))
    pa = metrics(sweep(LC, rep_a, default_sizes(101), 0)).P
    pb = metrics(sweep(LC, rep_b, default_sizes(101), 0)).P
    assert abs(pa - pb) / pa < 0.1


@pytest.mark.parametrize(
    "spec, rep, sizes",
    [
        (LC, FdRep(math.pi / 48, 1, Boundary.BOUNDED), default_sizes(201, stride=4)),
        (TRANSMON, charge_basis(), default_sizes(41)),
    ],
)
def test_sweep_levels_matches_single_level_sweeps(spec, rep, sizes):
    # Solving levels 0..2 together moves each eigenvalue by backward-error
    # roundoff only, never enough to change R.
    levels = (0, 1, 2)
    norms = np.array([np.abs(assemble(spec, rep, d).entries).max() for d in sizes])
    for curve in sweep_levels(spec, rep, sizes, levels):
        alone = sweep(spec, rep, sizes, curve.level)
        assert curve.sizes == alone.sizes
        assert np.all(np.abs(curve.deltas - alone.deltas) <= 64 * np.finfo(float).eps * norms)
        for threshold in (1e-6, 1e-4, 1e-3, 1e-2):
            assert decoherence_R(curve, threshold) == decoherence_R(alone, threshold)


def test_sweep_levels_starts_each_curve_above_its_level():
    rep = DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 4))
    curves = sweep_levels(LC, rep, default_sizes(11), (0, 3, 4))
    assert [c.level for c in curves] == [0, 3, 4]
    assert [c.sizes[0] for c in curves] == [3, 5, 5]
    with pytest.raises(ConfigError):
        sweep_levels(LC, rep, default_sizes(11), (0, 11))


@pytest.mark.parametrize(
    "spec, rep, sizes",
    [
        # M >= 2 with d < D: several bands, each cut at the block's edge
        (LC, FdRep(math.pi / 48, 1, Boundary.BOUNDED), tuple(range(7, 202, 4))),
        (LC, FdRep(math.pi / 48, 2, Boundary.BOUNDED), tuple(range(7, 202, 4))),
        (LC, FdRep(math.pi / 48, 3, Boundary.BOUNDED), tuple(range(7, 202, 4))),
        (TRANSMON, charge_basis(), default_sizes(101)),
        (CHARGE_LIMIT, charge_basis(), default_sizes(101)),
    ],
)
def test_banded_sweep_matches_per_size_dense_solves(spec, rep, sizes):
    top = assemble(spec, rep, max(sizes)).entries
    assert _solves_banded(half_bandwidth(top), top.shape[0])
    levels = (0, 1, 2)
    dense = {}
    for d in sizes:
        h = assemble(spec, rep, d).entries
        dense[d] = (scipy.linalg.eigvalsh(h, subset_by_index=(0, 2)), np.abs(h).max())
    for curve in sweep_levels(spec, rep, sizes, levels):
        ref = reference_energy(spec, curve.level)
        want = np.array([dense[d][0][curve.level] - ref for d in curve.sizes])
        norms = np.array([dense[d][1] for d in curve.sizes])
        assert np.all(np.abs(curve.deltas - want) <= 64 * np.finfo(float).eps * norms)
        alone = ConvergenceCurve(curve.level, curve.sizes, want)
        for threshold in (1e-6, 1e-4, 1e-3, 1e-2):
            assert decoherence_R(curve, threshold) == decoherence_R(alone, threshold)


@pytest.mark.parametrize(
    "spec, rep",
    [
        (FLUXONIUM, DvrRep(DvrKind.TRADITIONAL_PHASE, Spacing(5, 32, pi=True))),
        (FLUXONIUM, DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 5))),
        (LC, DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 4))),
        (FLUXONIUM, HoRep(LengthScale.LC)),
        (FLUXONIUM, HoRep(LengthScale.PLASMA)),
    ],
)
def test_sliced_dense_sweep_equals_per_size_solves_exactly(spec, rep):
    # One assembly at the largest size, sliced, must give bit for bit what
    # assembling and solving every size on its own gives.  These circuits are
    # parity-even, so each size is solved as its even and odd blocks.
    assert splits_by_parity(spec, rep)

    def lowest_three(d):
        blocks = [_solver_matrix(b) for b in _blocks(spec, rep)(d)]
        parts = [scipy.linalg.eigvalsh(b, subset_by_index=(0, min(2, b.shape[0] - 1))) for b in blocks]
        return np.sort(np.concatenate(parts))[:3]

    sizes = default_sizes(61)
    for curve in sweep_levels(spec, rep, sizes, (0, 1, 2)):
        ref = reference_energy(spec, curve.level)
        want = [lowest_three(d)[curve.level] - ref for d in curve.sizes]
        assert np.array_equal(curve.deltas, want)


@st.composite
def _noisy_monotone_curves(draw):
    """(exact, noise, threshold, eta) in units of 1/8: exact values that do
    not increase, each moved by a noise of at most eta.  All values are small
    integers, so every delta is exact and the curve often sits on the
    threshold, on -threshold or on 0; the noise is often +-eta."""
    n = draw(st.integers(5, 12))
    eta = draw(st.integers(0, 2))
    threshold = draw(st.integers(1, 3))
    exact = sorted(draw(st.lists(st.integers(-7, 9), min_size=n, max_size=n)), reverse=True)
    noise = draw(st.lists(st.sampled_from([-eta, eta]) | st.integers(-eta, eta), min_size=n, max_size=n))
    return exact, noise, threshold, eta


# each pinned case is one that the guard named in its comment would get
# wrong without its 2 eta margin
@settings(max_examples=100, deadline=None)
@given(_noisy_monotone_curves())
@example(([7, 4, 3, -2, -6], [2, -2, 0, 2, 0], 3, 2))  # delta just before R
@example(([8, 4, 0, -1, -6], [2, 2, -2, 2, -1], 2, 2))  # delta at R: a jump across the band
@example(([6, 5, 4, 3, 3], [1, 2, 0, -2, 2], 3, 2))  # R = None from the last delta
@example(([-2, -3, -4, -5, -7], [-1, 1, 0, 0, 0], 3, 1))  # R = None from the first delta
@example(([7, 6, 5, 1, 0], [0, -2, 2, -2, 2], 3, 2))  # no zero crossing, positive ends
@example(([0, 0, 0, -1, -7], [-1, 0, 1, -1, -1], 3, 1))  # no zero crossing, negative ends
def test_bisection_falls_back_or_equals_the_full_metrics(case):
    exact, noise, threshold, eta = case
    curve = _curve((np.array(exact) + np.array(noise)) / 8.0)
    record = bisect_metrics(curve.sizes, lambda i: curve.deltas[i], threshold / 8.0, eta / 8.0)
    assert record is None or record == metrics(curve, threshold / 8.0)


def test_bisection_settles_an_exactly_monotone_curve():
    curve = _curve(np.linspace(3.0, -0.5, 150) ** 3)
    record = bisect_metrics(curve.sizes, lambda i: curve.deltas[i], 0.25, 0.0)
    assert record == metrics(curve, 0.25)
    assert record.R is not None and record.crossed_zero


def _counting_size_solver(monkeypatch):
    solved = []
    size_solver = convergence.size_solver

    def counting(*args):
        solve, eta = size_solver(*args)

        def counted(d):
            solved.append(d)
            return solve(d)

        return counted, eta

    monkeypatch.setattr(convergence, "size_solver", counting)
    return solved


def test_a_nested_pair_is_bisected_and_a_truncated_one_solves_every_size(monkeypatch):
    sizes = default_sizes(301)
    solved = _counting_size_solver(monkeypatch)
    nested = DvrRep(DvrKind.TRADITIONAL_PHASE, Spacing(1, 8, pi=True))
    (got,) = level_metrics(FLUXONIUM, nested, sizes, (0,))
    assert got.path == "bisected" and got.sizes_solved == len(solved)
    assert len(solved) == len(set(solved)) <= 2 * math.ceil(math.log2(len(sizes))) + 5
    solved.clear()
    truncated = DvrRep(DvrKind.TRUNCATED_PHASE, Spacing(1, 8, pi=True))
    (got,) = level_metrics(FLUXONIUM, truncated, sizes, (0,))
    assert got.path == "full" and got.sizes_solved == len(sizes)
    assert sorted(solved) == list(sizes)


def test_levels_share_each_solved_size(monkeypatch):
    sizes = default_sizes(101)
    solved = _counting_size_solver(monkeypatch)
    rep = DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 5))
    results = level_metrics(FLUXONIUM, rep, sizes, (0, 1, 2))
    assert len(solved) == len(set(solved))
    for result, curve in zip(results, sweep_levels(FLUXONIUM, rep, sizes, (0, 1, 2))):
        assert result.level == curve.level
        assert result.record == metrics(curve)


def test_level_metrics_raises_what_metrics_raises():
    rep = DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 4))
    with pytest.raises(ConfigError, match="at least 5"):
        level_metrics(LC, rep, default_sizes(9), (0,))
    with pytest.raises(ConfigError, match="at least 5"):
        level_metrics(LC, rep, default_sizes(41), (0, 37))
    with pytest.raises(ConfigError, match="threshold must be positive"):
        level_metrics(LC, rep, default_sizes(41), (0,), threshold=0.0)
    with pytest.raises(ConfigError, match="ascending"):
        level_metrics(LC, rep, (41, 31, 21, 11, 9, 7), (0,))


def test_unsorted_sizes_fail_before_solving(monkeypatch):
    solved = _counting_size_solver(monkeypatch)
    rep = DvrRep(DvrKind.TRUNCATED_PHASE, Spacing(1, 4, pi=True))
    for sizes in ((7, 5, 9, 11, 13), (5, 5, 7, 9, 11)):
        with pytest.raises(ConfigError, match="ascending"):
            level_metrics(LC, rep, sizes, (0,))
        with pytest.raises(ConfigError, match="ascending"):
            sweep_levels(LC, rep, sizes, (0,))
    assert solved == []
