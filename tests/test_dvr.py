import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dvrcircuits.dvr import (
    DvrBasis,
    DvrKind,
    Spacing,
    conj_function_truncated,
    conj_moment_traditional,
    conj_moment_truncated,
    cosine_in_charge,
    diag_of_discretized,
    grid_points,
    truncated_moment_column,
)
from dvrcircuits.errors import ConfigError
from oracles import basis_function_values, conj_moment_truncated_direct, dvr_selfcheck

ALL_KINDS = list(DvrKind)
TRUNCATED = [DvrKind.TRUNCATED_PHASE, DvrKind.TRUNCATED_CHARGE]
TRADITIONAL = [DvrKind.TRADITIONAL_PHASE, DvrKind.TRADITIONAL_CHARGE]


def _basis(kind, num, den, M):
    return DvrBasis(kind, Spacing(num, den, pi=kind.is_phase), M)


# ---------------------------------------------------------------------------
# spacings and grids


def test_spacing_exact_value():
    assert Spacing(1, 4).value == 0.25
    assert Spacing(1, 4, pi=True).value == math.pi / 4
    assert Spacing(3, 10).fraction == Fraction(3, 10)
    with pytest.raises(ConfigError):
        Spacing(0, 4)
    with pytest.raises(ConfigError):
        Spacing(1, -2)
    # a spacing must be a positive double: no overflow, no underflow to 0
    for num, den, pi in ((10 ** 400, 1, False), (10 ** 308, 1, True), (1, 10 ** 400, False)):
        with pytest.raises(ConfigError):
            Spacing(num, den, pi)


def test_grid_points_charge():
    b = DvrBasis(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 1), 1)
    assert np.allclose(grid_points(b), [-1.0, 0.0, 1.0])


def test_grid_points_phase():
    b = DvrBasis(DvrKind.TRADITIONAL_PHASE, Spacing(1, 8, pi=True), 2)
    expect = [-math.pi / 4, -math.pi / 8, 0.0, math.pi / 8, math.pi / 4]
    assert np.allclose(grid_points(b), expect)


def test_truncated_phase_grid_spans_open_interval():
    # 23 points with dtheta = 2*pi/23 cover (-pi, pi)
    b = DvrBasis(DvrKind.TRUNCATED_PHASE, Spacing(2, 23, pi=True), 11)
    pts = grid_points(b)
    assert pts.size == 23
    assert -math.pi < pts[0] < pts[-1] < math.pi
    assert np.isclose(pts[-1] - pts[0], 2 * math.pi - b.spacing_value)


def test_truncated_conjugate_grid_relation():
    for kind in TRUNCATED:
        for M in (1, 5, 20):
            b = _basis(kind, 5, 32, M)
            assert np.isclose(b.spacing_value * b.conjugate_spacing, 2 * math.pi / b.dim)


def test_conjugate_bound_and_weight():
    b = DvrBasis(DvrKind.TRADITIONAL_PHASE, Spacing(1, 8, pi=True), 4)
    assert np.isclose(b.conjugate_bound, 8.0)  # N_max = pi / dtheta
    assert np.isclose(b.weight, 8.0 / math.pi)


# ---------------------------------------------------------------------------
# diagonal approximation


def test_diag_theta_squared():
    b = DvrBasis(DvrKind.TRADITIONAL_PHASE, Spacing(1, 8, pi=True), 4)
    op = diag_of_discretized(b, np.square)
    assert np.isclose(op.entries[4 + 2, 4 + 2], (math.pi / 4) ** 2)


def test_diag_cos_at_half_flux():
    b = DvrBasis(DvrKind.TRUNCATED_PHASE, Spacing(1, 8, pi=True), 4)
    op = diag_of_discretized(b, lambda th: np.cos(th + math.pi))
    assert np.isclose(op.entries[4, 4], -1.0)


def test_diag_shifted_charge_symmetry():
    b = DvrBasis(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 1), 3)
    op = diag_of_discretized(b, lambda n: (n - 0.5) ** 2)
    assert np.isclose(op.entries[3, 3], 0.25)
    assert np.isclose(op.entries[4, 4], 0.25)


def test_diag_rejects_nonfinite():
    b = DvrBasis(DvrKind.TRADITIONAL_PHASE, Spacing(1, 8, pi=True), 2)
    with np.errstate(divide="ignore"), pytest.raises(ConfigError):
        diag_of_discretized(b, lambda th: 1.0 / th)


# ---------------------------------------------------------------------------
# traditional conjugate moments (closed forms)


def test_traditional_phase_n2_diagonal():
    b = DvrBasis(DvrKind.TRADITIONAL_PHASE, Spacing(1, 8, pi=True), 3)
    op = conj_moment_traditional(b, 2)
    assert np.allclose(np.diag(op.entries), 64.0 / 3.0)


def test_traditional_phase_n2_offdiagonal():
    b = DvrBasis(DvrKind.TRADITIONAL_PHASE, Spacing(1, 8, pi=True), 3)
    op = conj_moment_traditional(b, 2)
    assert np.isclose(op.entries[3, 4], -128.0 / math.pi ** 2)


def test_traditional_first_moment_diag_zero_and_sign():
    phase = DvrBasis(DvrKind.TRADITIONAL_PHASE, Spacing(1, 8, pi=True), 3)
    charge = DvrBasis(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 4), 3)
    n_op = conj_moment_traditional(phase, 1)
    t_op = conj_moment_traditional(charge, 1)
    assert np.allclose(np.diag(n_op.entries), 0.0)
    assert np.allclose(np.diag(t_op.entries), 0.0)
    # +i for N-hat in the phase DVR, -i for theta-hat in the charge DVR
    s_phase = phase.spacing_value
    assert np.isclose(n_op.entries[3, 4], 1j * (-1.0) / (s_phase * (-1.0)))
    assert np.isclose(t_op.entries[3, 4], -1j * (-1.0) / (0.25 * (-1.0)))


def test_traditional_moment_rejects_truncated_kind():
    b = DvrBasis(DvrKind.TRUNCATED_PHASE, Spacing(1, 8, pi=True), 3)
    with pytest.raises(ConfigError):
        conj_moment_traditional(b, 2)


@pytest.mark.parametrize("kind", [DvrKind.TRADITIONAL_PHASE, DvrKind.TRUNCATED_PHASE])
@pytest.mark.parametrize(
    "power, den",
    [
        pytest.param(1, 10**309, id="N-subnormal-spacing"),  # 1/dTheta overflows
        pytest.param(2, 10**166, id="N2-pi-over-1e166"),  # (pi/dTheta)^2 overflows
    ],
)
def test_conjugate_moment_must_be_finite(kind, power, den):
    builder = conj_moment_truncated if kind.is_truncated else conj_moment_traditional
    basis = DvrBasis(kind, Spacing(1, den, pi=True), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            builder(basis, power)


def test_truncated_moment_whose_transform_overflows_is_rejected():
    # every y^2 on the conjugate grid is finite, but their sum in the DFT is not
    basis = DvrBasis(DvrKind.TRUNCATED_PHASE, Spacing(1, 12 * 10**153, pi=True), 2)
    assert np.all(np.isfinite((np.arange(-2, 3) * basis.conjugate_spacing) ** 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            conj_function_truncated(basis, np.square)
        # the closed form sums nothing: its entries are at most max y^2
        col = conj_moment_truncated(basis, 2).entries[:, 0]
    assert np.all(np.isfinite(col))
    assert math.isclose(col[0], 2.0 * basis.conjugate_spacing**2, rel_tol=4 * np.finfo(float).eps)


# ---------------------------------------------------------------------------
# truncated conjugate moments (DFT path vs direct finite sums)


def test_truncated_first_moment_diag_zero():
    for kind in TRUNCATED:
        b = _basis(kind, 1, 4, 6)
        assert np.allclose(np.diag(conj_moment_truncated(b, 1).entries), 0.0)


def test_truncated_m1_three_term_sum_oracle():
    # Brute-force 3-term sum for M=1: entry (0,1) of N-hat in the phase DVR.
    b = DvrBasis(DvrKind.TRUNCATED_PHASE, Spacing(1, 4, pi=True), 1)
    dN = b.conjugate_spacing
    expect = sum(
        n * dN * np.exp(-2j * np.pi * n * (-1) / 3.0) for n in (-1, 0, 1)
    ) / 3.0
    got = conj_moment_truncated(b, 1).entries[0, 1]
    assert np.isclose(got, expect, atol=1e-14)
    assert np.isclose(got, 1j * dN / math.sqrt(3.0), atol=1e-14)


@pytest.mark.parametrize("kind", TRUNCATED)
@pytest.mark.parametrize("power", [1, 2])
def test_dft_path_matches_direct_sum(kind, power):
    for M in (1, 2, 4, 10, 17, 50):
        b = _basis(kind, 5, 32, M)
        a = conj_moment_truncated(b, power).entries
        d = conj_moment_truncated_direct(b, power).entries
        # absolute floor for small-magnitude moments, relative bound once the
        # second-moment entries grow to O(100) and summation rounding scales up
        assert np.abs(a - d).max() < max(1e-12, 2e-14 * np.abs(a).max())
        # with its phase index reduced exactly the oracle agrees to a few ulp
        assert np.abs(a - d).max() <= 4 * np.finfo(float).eps * np.abs(a).max()


def _compensated_column(b, g):
    """First column of the truncated-DVR circulant of g from compensated sums,
    with the phase index n*k reduced mod d exactly before scaling by 2*pi/d."""
    M, d, dy = b.M, b.dim, b.conjugate_spacing
    sign = -1.0 if b.kind.is_phase else 1.0
    values = [(n, g(n * dy)) for n in range(-M, M + 1)]
    col = []
    for k in range(d):
        terms = [(v, 2.0 * math.pi * (n * k % d) / d) for n, v in values]
        re = math.fsum(v * math.cos(t) for v, t in terms)
        im = math.fsum(v * math.sin(t) for v, t in terms)
        col.append(complex(re, sign * im) / d)
    return np.array(col)


@pytest.mark.parametrize(
    "kind, spacing",
    [
        (DvrKind.TRUNCATED_PHASE, None),  # the transmon's 2*pi/d grid, dN = 1
        (DvrKind.TRUNCATED_PHASE, Spacing(1, 64, pi=True)),
        (DvrKind.TRUNCATED_CHARGE, Spacing(1, 5)),
    ],
)
def test_fft_circulant_matches_compensated_sums(kind, spacing):
    # (N - N_g)^2 at N_g = 1/2 is not even, so its circulant is complex.
    # Summing exp(2 pi i n k / d) directly loses accuracy as n*k grows (53 ulp
    # of the largest entry at M = 150); one FFT stays within 2.
    eps = np.finfo(float).eps
    for M in (1, 2, 10, 50, 150):
        b = DvrBasis(kind, spacing or Spacing(2, 2 * M + 1, pi=True), M)
        for g in (lambda y: y, np.square, lambda y: (y - 0.5) ** 2):
            want = _compensated_column(b, g)
            got = conj_function_truncated(b, g).entries[:, 0]
            assert np.abs(got - want).max() <= 4 * eps * np.abs(want).max()


def _exact_square_column(b, offset):
    """(1/d) sum_n (n s - offset)^2 exp(-+2 pi i k n / d) to 40 digits, s the
    double conjugate spacing taken as exact; column[d - k] = conj(column[k])."""
    M, d = b.M, b.dim
    sign = -1 if b.kind.is_phase else 1
    with mpmath.workdps(40):
        cos = [mpmath.cospi(mpmath.mpf(2 * m) / d) for m in range(d)]
        sin = [sign * mpmath.sinpi(mpmath.mpf(2 * m) / d) for m in range(d)]
        weights = [(n * mpmath.mpf(b.conjugate_spacing) - mpmath.mpf(offset)) ** 2 / d for n in range(-M, M + 1)]
        column = [mpmath.fsum(weights)]
        for k in range(1, M + 1):
            turns = [n * k % d for n in range(-M, M + 1)]
            re = mpmath.fdot(weights, [cos[t] for t in turns])
            im = mpmath.fdot(weights, [sin[t] for t in turns])
            column.append(mpmath.mpc(re, im))
        return column + [z.conjugate() for z in column[:0:-1]]


@pytest.mark.parametrize(
    "kind, spacing, offset",
    [
        (DvrKind.TRUNCATED_PHASE, Spacing(1, 64, pi=True), 0.0),
        (DvrKind.TRUNCATED_PHASE, Spacing(5, 32, pi=True), 0.0),
        (DvrKind.TRUNCATED_CHARGE, Spacing(1, 5), 0.0),
        (DvrKind.TRUNCATED_PHASE, Spacing(2, 301, pi=True), 0.5),  # the transmon's 2*pi/d grid at N_g = 1/2
    ],
)
def test_closed_form_columns_are_exact_to_a_few_ulp_per_entry(kind, spacing, offset):
    # entry by entry, not relative to the largest: the FFT's smallest entries
    # were off by up to 1.4e-11 of themselves at M = 150
    b = DvrBasis(kind, spacing, 150)
    got = truncated_moment_column(b, 2, offset)
    assert got.dtype == (complex if offset else float)
    want = _exact_square_column(b, offset)
    with mpmath.workdps(40):
        worst = max(abs(mpmath.mpc(complex(g)) - w) / abs(w) for g, w in zip(got, want))
    assert worst <= 4 * np.finfo(float).eps


def test_truncated_continuum_limit_matches_traditional():
    # As M grows at fixed spacing, central entries approach the infinite-grid
    # closed forms.
    for trunc_kind, trad_kind in [
        (DvrKind.TRUNCATED_PHASE, DvrKind.TRADITIONAL_PHASE),
        (DvrKind.TRUNCATED_CHARGE, DvrKind.TRADITIONAL_CHARGE),
    ]:
        M = 150
        trunc = _basis(trunc_kind, 1, 4, M)
        trad = _basis(trad_kind, 1, 4, M)
        a = conj_moment_truncated(trunc, 2).entries
        e = conj_moment_traditional(trad, 2).entries
        c = slice(M - 2, M + 3)
        assert np.abs((a[c, c] - e[c, c]) / e[c, c]).max() < 1e-3


def test_truncated_second_moment_positive_semidefinite():
    for kind in TRUNCATED:
        for M in (2, 9, 30):
            b = _basis(kind, 3, 16, M)
            w = np.linalg.eigvalsh(conj_moment_truncated(b, 2).entries)
            assert w.min() >= -1e-10


def test_traditional_second_moment_positive_semidefinite():
    for kind in TRADITIONAL:
        for M in (2, 9, 30):
            b = _basis(kind, 3, 16, M)
            w = np.linalg.eigvalsh(conj_moment_traditional(b, 2).entries)
            assert w.min() >= -1e-10


def test_all_moment_matrices_hermitian():
    for kind in ALL_KINDS:
        b = _basis(kind, 5, 32, 8)
        if kind.is_truncated:
            ops = [conj_moment_truncated(b, 1), conj_moment_truncated(b, 2)]
        else:
            ops = [conj_moment_traditional(b, 1), conj_moment_traditional(b, 2)]
        for op in ops:
            h = op.entries
            assert np.abs(h - h.conj().T).max() < 1e-15 * max(np.abs(h).max(), 1.0)


# ---------------------------------------------------------------------------
# cosine in charge DVRs


def test_cosine_charge_basis_limit():
    b = DvrBasis(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 1), 3)
    op = cosine_in_charge(b, 0.0).entries
    expect = 0.5 * (np.eye(7, k=1) + np.eye(7, k=-1))
    assert np.allclose(op, expect)


def test_cosine_half_charge_half_flux():
    b = DvrBasis(DvrKind.TRUNCATED_CHARGE, Spacing(1, 2), 4)
    op = cosine_in_charge(b, 0.5).entries
    expect = -0.5 * (np.eye(9, k=2) + np.eye(9, k=-2))
    assert np.allclose(op, expect)


def test_cosine_third_charge_quarter_flux():
    b = DvrBasis(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 3), 5)
    op = cosine_in_charge(b, 0.25).entries
    assert np.allclose(np.diag(op, k=3), 0.5j)
    assert np.allclose(np.diag(op, k=-3), -0.5j)


def test_cosine_identical_for_traditional_and_truncated():
    a = cosine_in_charge(DvrBasis(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 3), 6), 0.3)
    b = cosine_in_charge(DvrBasis(DvrKind.TRUNCATED_CHARGE, Spacing(1, 3), 6), 0.3)
    assert np.array_equal(a.entries, b.entries)


def test_cosine_bands_equal_scaled_identities():
    # the bands are written directly; the dense scaled-identity sum is the reference
    for d, k in ((1, 1), (3, 5), (7, 1), (9, 4), (301, 4)):
        b = DvrBasis(DvrKind.TRUNCATED_CHARGE, Spacing(1, k), (d - 1) // 2)
        for A in (0.0, 0.25, 0.37, 0.5):
            upper = 0.5 * np.exp(2j * np.pi * A)
            if (2 * A).is_integer():  # exp(2 pi i A) = (-1)^(2A), real
                upper = upper.real
            want = upper * np.eye(d, k=k) + np.conj(upper) * np.eye(d, k=-k)
            got = cosine_in_charge(b, A).entries
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_cosine_rejects_noninteger_inverse_spacing():
    b = DvrBasis(DvrKind.TRADITIONAL_CHARGE, Spacing(2, 5), 6)
    with pytest.raises(ConfigError, match="integer"):
        cosine_in_charge(b, 0.0)
    phase = DvrBasis(DvrKind.TRADITIONAL_PHASE, Spacing(1, 4, pi=True), 6)
    with pytest.raises(ConfigError):
        cosine_in_charge(phase, 0.0)


def test_cosine_small_matrix_has_no_bands():
    # Both bands fall outside a d <= 1/dN matrix; the operator is zero there.
    b = DvrBasis(DvrKind.TRADITIONAL_CHARGE, Spacing(1, 5), 2)
    assert np.allclose(cosine_in_charge(b, 0.3).entries, 0.0)


def test_cosine_spectral_radius_bounded():
    for k in (1, 2, 3):
        d = 3 * k + 3  # d >= 3k+1 and odd
        if d % 2 == 0:
            d += 1
        M = (d - 1) // 2
        b = DvrBasis(DvrKind.TRUNCATED_CHARGE, Spacing(1, k), M)
        w = np.linalg.eigvalsh(cosine_in_charge(b, 0.37).entries)
        assert np.abs(w).max() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# self-checks on the closed-form basis functions


def test_selfcheck_traditional_phase():
    b = DvrBasis(DvrKind.TRADITIONAL_PHASE, Spacing(1, 4, pi=True), 10)
    report = dvr_selfcheck(b, 8)
    assert report.interpolation_defect < 1e-12


def test_selfcheck_truncated_charge():
    b = DvrBasis(DvrKind.TRUNCATED_CHARGE, Spacing(1, 3), 5)
    report = dvr_selfcheck(b, 8)
    assert report.interpolation_defect < 1e-12


def test_selfcheck_truncated_overlaps():
    b = DvrBasis(DvrKind.TRUNCATED_PHASE, Spacing(2, 11, pi=True), 5)
    report = dvr_selfcheck(b, 16)
    assert report.overlap_defect < 1e-10


def test_truncated_kernel_periodicity():
    b = DvrBasis(DvrKind.TRUNCATED_PHASE, Spacing(2, 11, pi=True), 5)
    period = b.dim * b.spacing_value  # 2 * theta_max
    xs = np.linspace(-2.0, 2.0, 57)
    for alpha in (-3, 0, 4):
        a = basis_function_values(b, alpha, xs)
        shifted = basis_function_values(b, alpha, xs + period)
        assert np.abs(a - shifted).max() < 1e-12


def test_selfcheck_rejects_small_fine_factor():
    b = DvrBasis(DvrKind.TRUNCATED_CHARGE, Spacing(1, 3), 5)
    with pytest.raises(ConfigError):
        dvr_selfcheck(b, 3)
