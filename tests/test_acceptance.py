"""Acceptance suite: one pass/fail line per criterion.

Each test prints an ``ACCEPTANCE n: PASS/FAIL`` line (bypassing capture so the
lines always appear in the run log) and then asserts the same condition.
Criterion 8 concerns the sign of the asymptotic ground-state offset of the LC
oscillator at dN = 1/4; a 50-digit oracle puts that offset at -4.8e-24 GHz,
ten orders of magnitude below the double-precision saturation floor, so the
sign it tests is eigensolver roundoff and the outcome depends on the platform.
Solved as one 301 x 301 matrix it followed the BLAS thread count on one
2-core machine (-9.664e-14 GHz with two OpenBLAS threads, +7.953e-14 GHz with
one); solved as its two parity blocks, as sweeps now do, it gives
-7.921e-14 GHz with either (see the README).
"""

import math
import sys
import time
from fractions import Fraction

import conftest

import numpy as np
import pytest

from dvrcircuits.circuits import Family
from dvrcircuits.convergence import (
    Scale,
    _level_curve,
    _unit,
    decoherence_R,
    default_sizes,
    energy_scale,
    level_metrics,
    metrics,
    saturation_P,
    sweep,
    sweep_levels,
)
from dvrcircuits.dvr import (
    DvrBasis,
    DvrKind,
    Spacing,
    conj_moment_traditional,
    conj_moment_truncated,
)
from dvrcircuits.presets import (
    CHARGE_LIMIT,
    FD_PHASE_GRIDS,
    FD_SIZES,
    FLUXONIUM_CHARGE_GRIDS,
    FLUXONIUM_CIRCUIT,
    LC_CHARGE_GRIDS,
    LC_CIRCUIT,
    PHASE_GRIDS,
    TRANSMON_LIMIT,
    fd_representations,
    transmon_representations,
)
from dvrcircuits.spectra import DvrRep, HoRep, assemble, eigensolve, nested_start, reference_energy
from dvrcircuits.ho import HoBasis, LengthScale, cos_in_ho
from dvrcircuits.states import ShiftSpec, apply_shift, decompose
from dvrcircuits.fdm import fd_coefficients
from oracles import conj_moment_truncated_direct, dvr_selfcheck, shift_operator_by_powers

LC_THRESHOLD = 1e-6 / energy_scale(LC_CIRCUIT)


def _report(n: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.record_acceptance(line)


def _lc_curve(kind, frac, largest=301):
    rep = DvrRep(kind, Spacing(frac.numerator, frac.denominator, pi=kind.is_phase))
    return sweep(LC_CIRCUIT, rep, default_sizes(largest), 0, Scale.LC_SCALED)


def _scan_metrics(spec, rep, threshold, scale, bisected, key, ground_sweeps):
    """Metrics of the level-0 sweep over d = 3-301, whose values the
    ``ground_sweeps`` fixture holds.  A nested pair runs ``level_metrics`` first:
    where it bisected, its record goes to ``bisected`` and the full sweep's
    is returned for comparison; where it fell back, its record already is
    that of the full sweep."""
    sizes = conftest.GROUND_SIZES
    if nested_start(rep, max(sizes), max(sizes)) is not None:
        (result,) = level_metrics(spec, rep, sizes, (0,), threshold, scale)
        if result.path == "full":
            return result.record
        bisected[key] = result.record
    # what sweep(spec, rep, sizes, 0, scale) computes, from the stored values
    values = ground_sweeps[0][(spec, rep)]
    curve = _level_curve(0, reference_energy(spec, 0), sizes, values, _unit(spec, scale))
    return metrics(curve, threshold)


@pytest.fixture(scope="module")
def lc_scan(ground_sweeps):
    """R per (kind, grid) over the full LC preset lists, and the bisected
    records of the nested grids."""
    out, bisected = {}, {}
    for kind in DvrKind:
        grids = PHASE_GRIDS if kind.is_phase else LC_CHARGE_GRIDS
        for frac in grids:
            rep = DvrRep(kind, Spacing(frac.numerator, frac.denominator, pi=kind.is_phase))
            key = (kind, frac)
            out[key] = _scan_metrics(LC_CIRCUIT, rep, LC_THRESHOLD, Scale.LC_SCALED, bisected, key, ground_sweeps)
    return out, bisected


@pytest.fixture(scope="module")
def fluxonium_scan(ground_sweeps):
    """Ground-state metrics for every fluxonium preset representation, timed
    (with the ``ground_sweeps`` level-0 sweeps of these pairs), and the bisected
    records of the nested ones."""
    start = time.monotonic()
    out, bisected = {}, {}
    reps = {}
    for kind in (DvrKind.TRADITIONAL_PHASE, DvrKind.TRUNCATED_PHASE):
        for frac in PHASE_GRIDS:
            reps[(kind, frac)] = DvrRep(kind, Spacing(frac.numerator, frac.denominator, pi=True))
    for kind in (DvrKind.TRADITIONAL_CHARGE, DvrKind.TRUNCATED_CHARGE):
        for frac in FLUXONIUM_CHARGE_GRIDS:
            reps[(kind, frac)] = DvrRep(kind, Spacing(frac.numerator, frac.denominator))
    for scale in LengthScale:
        reps[("ho", scale)] = HoRep(scale)
    for key, rep in reps.items():
        out[key] = _scan_metrics(FLUXONIUM_CIRCUIT, rep, 1e-6, Scale.ABSOLUTE, bisected, key, ground_sweeps)
    elapsed = time.monotonic() - start + ground_sweeps[1][Family.FLUXONIUM]
    return out, elapsed, bisected


def test_criterion_1_lc_exactness():
    start = time.monotonic()
    converging = _lc_curve(DvrKind.TRADITIONAL_CHARGE, Fraction(1, 4))
    flat = _lc_curve(DvrKind.TRADITIONAL_CHARGE, Fraction(3, 2))
    fine = _lc_curve(DvrKind.TRADITIONAL_CHARGE, Fraction(1, 10))
    r_conv = decoherence_R(converging, LC_THRESHOLD)
    r_flat = decoherence_R(flat, LC_THRESHOLD)
    elapsed = time.monotonic() - start
    # three behavior categories: too-large grid never converges; intermediate
    # grid surpasses the threshold and saturates; small grid surpasses it and
    # keeps improving without saturating
    ok = (
        r_conv is not None
        and r_flat is None
        and decoherence_R(fine, LC_THRESHOLD) is not None
        and not saturation_P(fine).saturated
        and elapsed < 60.0
    )
    _report(1, ok, f"dN=1/4 R={r_conv}, dN=3/2 R={r_flat}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_lc_cutoffs(lc_scan):
    scan, _ = lc_scan
    largest = {}
    for kind in DvrKind:
        grids = PHASE_GRIDS if kind.is_phase else LC_CHARGE_GRIDS
        achieved = [f for f in grids if scan[(kind, f)].R is not None]
        largest[kind] = max(achieved)
    ok = (
        largest[DvrKind.TRADITIONAL_CHARGE] == Fraction(9, 20)
        and largest[DvrKind.TRUNCATED_CHARGE] == Fraction(9, 20)
        and largest[DvrKind.TRADITIONAL_PHASE] == Fraction(1, 3)
        and largest[DvrKind.TRUNCATED_PHASE] == Fraction(1, 3)
    )
    _report(
        2,
        ok,
        "largest decoherence-accurate grids: charge "
        f"{largest[DvrKind.TRADITIONAL_CHARGE]}/{largest[DvrKind.TRUNCATED_CHARGE]}, "
        f"phase {largest[DvrKind.TRADITIONAL_PHASE]}pi/{largest[DvrKind.TRUNCATED_PHASE]}pi",
    )
    assert ok


def test_criterion_3_lc_fdm_single_crossing():
    crossings = {}
    for rep in fd_representations():
        curve = sweep(LC_CIRCUIT, rep, FD_SIZES, 0, Scale.LC_SCALED)
        r = decoherence_R(curve, LC_THRESHOLD)
        if r is not None:
            crossings[rep.spacing] = r
    ok = len(crossings) == 1 and abs(next(iter(crossings.values())) - 499) <= 2
    _report(3, ok, f"FD crossings {{spacing: R}} = { {f'{s:.6g}': r for s, r in crossings.items()} }")
    assert ok


def test_criterion_4_fluxonium_R(fluxonium_scan):
    scan, elapsed, _ = fluxonium_scan
    r_ho = scan[("ho", LengthScale.LC)].R
    r_plasma = scan[("ho", LengthScale.PLASMA)].R
    # "best" counts only grids whose accuracy stays below the threshold; the
    # pi/4 traditional phase grid crosses once through a transient dip but
    # settles just above 1e-6 GHz, which is not converged accuracy
    dvr_rs = [
        m.R
        for key, m in scan.items()
        if key[0] != "ho" and m.R is not None and m.P < 1e-6
    ]
    best = min(dvr_rs)
    ok = (
        r_ho == 47
        and abs(best - 31) <= 2 * 2  # +/- 2 sampled sizes, odd stride 2
        and r_plasma is not None
        and abs(r_plasma - 209) <= 4
        and elapsed < 300.0
    )
    _report(4, ok, f"R_HO={r_ho}, best DVR R={best}, plasma R={r_plasma}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_fluxonium_cutoffs(fluxonium_scan):
    scan, _, _ = fluxonium_scan
    ok = True
    # charge DVRs: no grid with dN > 0.25 reaches decoherence accuracy
    for kind in (DvrKind.TRADITIONAL_CHARGE, DvrKind.TRUNCATED_CHARGE):
        for frac in FLUXONIUM_CHARGE_GRIDS:
            reached = scan[(kind, frac)].R is not None
            ok = ok and (reached == (frac <= Fraction(1, 4)))
    # phase DVRs: cutoffs pi/4 and 7pi/32; the kind that still reaches at
    # pi/4 does so through a transient dip while saturating just above the
    # threshold (non-variational behavior)
    largest = {}
    for kind in (DvrKind.TRADITIONAL_PHASE, DvrKind.TRUNCATED_PHASE):
        achieved = [f for f in PHASE_GRIDS if scan[(kind, f)].R is not None]
        largest[kind] = max(achieved)
    ok = ok and {largest[DvrKind.TRADITIONAL_PHASE], largest[DvrKind.TRUNCATED_PHASE]} == {
        Fraction(1, 4),
        Fraction(7, 32),
    }
    wide_kind = max(largest, key=largest.get)
    wide = scan[(wide_kind, Fraction(1, 4))]
    ok = ok and wide.saturated and 1e-6 < wide.P < 1e-5
    _report(
        5,
        ok,
        f"charge cutoff dN=1/4; phase cutoffs trad={largest[DvrKind.TRADITIONAL_PHASE]}pi, "
        f"trunc={largest[DvrKind.TRUNCATED_PHASE]}pi (P at pi/4: {wide.P:.2e})",
    )
    assert ok


def test_criterion_6_transmon_R():
    start = time.monotonic()
    rs = {}
    for name, circuit, expect in (("tl", TRANSMON_LIMIT, 15), ("cl", CHARGE_LIMIT, 7)):
        for rep in transmon_representations():
            curve = sweep(circuit, rep, default_sizes(101), 0)
            rs[(name, rep.label)] = (decoherence_R(curve), expect)
    elapsed = time.monotonic() - start
    ok = all(r == expect for r, expect in rs.values()) and elapsed < 10.0
    _report(6, ok, f"{ {k: v[0] for k, v in rs.items()} }, {elapsed:.2f}s")
    assert ok


def test_criterion_7_property_suite():
    checks = {}
    # DVR self-checks
    b = DvrBasis(DvrKind.TRUNCATED_PHASE, Spacing(2, 23, pi=True), 11)
    checks["selfcheck"] = dvr_selfcheck(b, 8).interpolation_defect < 1e-12
    # Hermiticity of assembled Hamiltonians
    h = assemble(FLUXONIUM_CIRCUIT, DvrRep(DvrKind.TRUNCATED_CHARGE, Spacing(1, 5)), 31).entries
    checks["hermitian"] = np.abs(h - h.conj().T).max() < 1e-13 * np.abs(h).max()
    # DFT vs direct sums at M = 50
    bb = DvrBasis(DvrKind.TRUNCATED_CHARGE, Spacing(1, 5), 50)
    checks["dft_direct"] = (
        np.abs(conj_moment_truncated(bb, 2).entries - conj_moment_truncated_direct(bb, 2).entries).max()
        < 1e-12
    )
    # truncated -> traditional continuum convergence on the central block
    M = 150
    tr = conj_moment_truncated(DvrBasis(DvrKind.TRUNCATED_PHASE, Spacing(1, 4, pi=True), M), 2).entries
    td = conj_moment_traditional(DvrBasis(DvrKind.TRADITIONAL_PHASE, Spacing(1, 4, pi=True), M), 2).entries
    c = slice(M - 2, M + 3)
    checks["continuum"] = np.abs((tr[c, c] - td[c, c]) / td[c, c]).max() < 1e-3
    # FD stencil exactness on monomials of degree <= 2M+1
    exact = True
    for order in (1, 2, 3):
        coeff = fd_coefficients(order)
        nodes = np.arange(-order, order + 1, dtype=float)
        for p in range(2 * order + 2):
            got = coeff @ (0.7 + nodes) ** p
            want = p * (p - 1) * 0.7 ** (p - 2) if p >= 2 else 0.0
            exact = exact and abs(got - want) <= 1e-9 * max(abs(want), 1.0)
    checks["fd_monomials"] = exact
    # shift unitarity and fast-path equivalence
    basis = DvrBasis(DvrKind.TRUNCATED_PHASE, Spacing(5, 32, pi=True), 20)
    u = shift_operator_by_powers(basis, ShiftSpec(7)).entries
    checks["shift_unitary"] = np.abs(u @ u.conj().T - np.eye(41)).max() == 0.0
    spectrum = eigensolve(assemble(FLUXONIUM_CIRCUIT, DvrRep(DvrKind.TRUNCATED_PHASE, Spacing(5, 32, pi=True)), 41), 1)
    state = spectrum.eigvectors[:, 0]
    fast, _ = apply_shift(state, basis, ShiftSpec(7))
    checks["shift_paths"] = np.abs(fast - u @ state).max() <= 1e-14
    # decomposition rows sum to one
    table = decompose(eigensolve(assemble(FLUXONIUM_CIRCUIT, HoRep(LengthScale.LC), 61), 3))
    checks["decompose_sum"] = np.abs(table.sum(axis=1) - 1.0).max() < 1e-10
    # HO cosine dim-1 analytic oracle
    theta0 = (8.0 * 2.5 / 0.5) ** 0.25
    got = cos_in_ho(HoBasis(theta0, 1, 1001), 0.0).entries[0, 0]
    checks["ho_cos_oracle"] = abs(got - math.exp(-theta0 ** 2 / 4.0)) < 1e-10
    ok = all(checks.values())
    _report(7, ok, f"{ {k: bool(v) for k, v in checks.items()} }")
    assert ok


def test_criterion_8_nonvariational_sign():
    curve = _lc_curve(DvrKind.TRADITIONAL_CHARGE, Fraction(1, 4))
    sat = saturation_P(curve)
    final = curve.deltas[-1]
    ok = final < 0.0
    _report(
        8,
        ok,
        f"final Delta_0 = {final:.3e} (true asymptote -4.8e-24, below the f64 floor; "
        f"sign at saturation is eigensolver roundoff)",
    )
    assert ok


# Metrics by bisection (convergence.level_metrics) on the nested preset pairs:
# the same records as the full sweeps above, field by field.


def _bisected(spec, rep, sizes, levels, threshold, scale):
    """level_metrics of a nested pair, and how many of its levels it bisected."""
    assert nested_start(rep, max(sizes), max(sizes)) is not None
    results = level_metrics(spec, rep, sizes, levels, threshold, scale)
    return [r.record for r in results], sum(r.path == "bisected" for r in results)


def test_bisected_lc_metrics_equal_the_scan(lc_scan):
    scan, bisected = lc_scan
    assert len(bisected) >= 20
    for key, record in bisected.items():
        assert record == scan[key], key


def test_bisected_fluxonium_metrics_equal_the_scan(fluxonium_scan):
    scan, _, bisected = fluxonium_scan
    assert len(bisected) >= 20
    for key, record in bisected.items():
        assert record == scan[key], key


@pytest.mark.parametrize(
    "rep",
    [
        DvrRep(DvrKind.TRADITIONAL_PHASE, Spacing(1, 8, pi=True)),
        DvrRep(DvrKind.TRADITIONAL_PHASE, Spacing(5, 16, pi=True)),
        DvrRep(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 9)),
    ],
    ids=lambda rep: rep.label,
)
def test_bisected_fluxonium_levels_equal_the_full_sweep(rep):
    levels = (0, 1, 2, 3, 4)
    got, _ = _bisected(FLUXONIUM_CIRCUIT, rep, default_sizes(301), levels, 1e-6, Scale.ABSOLUTE)
    assert got == [metrics(c) for c in sweep_levels(FLUXONIUM_CIRCUIT, rep, default_sizes(301), levels)]


def test_bisected_lc_fd_levels_equal_the_full_sweep():
    # every other preset grid, the one that crosses among them, and every
    # fourth preset size, as the lc-fd-levels benchmark asks
    sizes, levels, bisected = default_sizes(599, stride=4), (0, 1, 2), 0
    for rep in fd_representations()[1::2]:
        got, n = _bisected(LC_CIRCUIT, rep, sizes, levels, LC_THRESHOLD, Scale.LC_SCALED)
        curves = sweep_levels(LC_CIRCUIT, rep, sizes, levels, Scale.LC_SCALED)
        assert got == [metrics(c, LC_THRESHOLD) for c in curves], rep.label
        bisected += n
    assert bisected >= 20
