import math

import numpy as np
import pytest

from dvrcircuits import ho
from dvrcircuits.circuits import CircuitSpec
from dvrcircuits.errors import ConfigError
from dvrcircuits.ho import (
    HoBasis,
    LengthScale,
    cos_in_ho,
    length_scale,
    quadratic_bands,
)
from oracles import cos_in_ho_by_full_embedding, ho_cos_element, ho_operators, pentadiagonal

FLUXONIUM = CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.5)


def test_length_scale_lc():
    assert np.isclose(length_scale(FLUXONIUM, LengthScale.LC), 40.0 ** 0.25)


def test_length_scale_plasma():
    expect = (math.sqrt(8.0 * 2.5 * 10.0) / 0.5) ** 0.5
    assert np.isclose(length_scale(FLUXONIUM, LengthScale.PLASMA), expect)


def test_length_scale_lc_circuit():
    assert np.isclose(length_scale(CircuitSpec.lc(1.0, 1.0), LengthScale.LC), 8.0 ** 0.25)


def test_length_scale_rejects_transmon():
    with pytest.raises(ConfigError):
        length_scale(CircuitSpec.transmon(0.2, 10.0, 0.5), LengthScale.LC)


def test_basis_validation():
    for theta0 in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            HoBasis(theta0, 10)
    with pytest.raises(ConfigError):
        HoBasis(2.5, 10, embed_dim=5)


def test_operators_tridiagonal_structure():
    theta0 = 2.5
    theta, n = ho_operators(HoBasis(theta0, 8, 1001))
    t, m = theta.entries, n.entries
    assert np.isclose(t[0, 1], theta0 / math.sqrt(2.0))
    assert np.allclose(np.diag(m), 0.0)
    # theta real symmetric, N purely imaginary off-diagonal
    assert np.allclose(t.imag, 0.0)
    assert np.allclose(m.real, 0.0)
    for mat in (t, m):
        off2 = np.triu(mat, 2)
        assert np.allclose(off2, 0.0)


def test_canonical_commutator_on_interior():
    theta, n = ho_operators(HoBasis(2.5, 50, 1001))
    comm = theta.entries @ n.entries - n.entries @ theta.entries
    interior = comm[:40, :40] - 1j * np.eye(40)
    assert np.abs(interior).max() < 1e-12


def _quadratic_matrices(basis):
    """(theta^2, N^2) as dense matrices from their bands."""
    return tuple(pentadiagonal(*bands) for bands in quadratic_bands(basis))


def test_quadratic_bands_free_of_edge_corruption():
    theta2, n2 = _quadratic_matrices(HoBasis(1.7, 6, 1001))
    big_t, big_n = ho_operators(HoBasis(1.7, 20, 1001))
    assert np.allclose(theta2, (big_t.entries @ big_t.entries)[:6, :6].real)
    assert np.allclose(n2, (big_n.entries @ big_n.entries)[:6, :6].real)


@pytest.mark.parametrize("scale", list(LengthScale))
@pytest.mark.parametrize("dim", [3, 31, 301, 1001])
def test_quadratic_bands_match_long_double_closed_form(scale, dim):
    theta0 = length_scale(FLUXONIUM, scale)
    m = np.arange(dim, dtype=np.longdouble)
    t2 = np.longdouble(theta0) ** 2
    s = np.sqrt((m[:-2] + 1) * (m[:-2] + 2)) / 2
    closed_forms = ((t2 * (m + 0.5), t2 * s), ((m + 0.5) / t2, -s / t2))  # theta^2, N^2
    for got, want in zip(quadratic_bands(HoBasis(theta0, dim, 1001)), closed_forms):
        bound = np.finfo(float).eps * max(np.abs(w).max() for w in want)
        for got_band, want_band in zip(got, want):
            assert got_band.dtype == np.float64 and got_band.shape == want_band.shape
            assert np.abs(got_band - want_band).max(initial=0.0) <= bound


def test_cos_dim1_analytic_oracle():
    # <0| cos(theta) |0> = exp(-theta0^2 / 4), the Gaussian characteristic
    # function of the oscillator ground state.
    for theta0 in (0.8, 1.68179, 2.51487):
        op = cos_in_ho(HoBasis(theta0, 1, 1001), 0.0)
        assert abs(op.entries[0, 0] - math.exp(-theta0 ** 2 / 4.0)) < 1e-10


def test_cos_half_flux_negates():
    basis = HoBasis(2.5, 12, 1001)
    a = cos_in_ho(basis, 0.0).entries
    b = cos_in_ho(basis, 0.5).entries
    assert np.abs(a + b).max() < 1e-12


def test_cos_hermitian_and_bounded():
    op = cos_in_ho(HoBasis(2.5, 100, 1001), 0.3).entries
    assert np.abs(op - op.conj().T).max() < 1e-12
    assert np.abs(np.linalg.eigvalsh(op)).max() <= 1.0 + 1e-10


def test_cached_cos_cannot_be_corrupted_by_callers():
    basis = HoBasis(2.5, 12, 1001)
    before = float(cos_in_ho(basis, 0.0).entries[0, 0])
    with pytest.raises(ValueError):
        cos_in_ho(basis, 0.0).entries[0, 0] = 99.0
    assert cos_in_ho(basis, 0.0).entries[0, 0] == before
    for block in ho._embedded_blocks(2.5, 1001):
        with pytest.raises(ValueError):
            block[0, 0] = 99.0
    assert cos_in_ho(basis, 0.0).entries[0, 0] == before


_EPS = np.finfo(float).eps
_FLUX = 0.3
# entries of the top-left 301 block: the corners, both parities next to the
# diagonal, and a seeded sample
_ENTRIES = [(0, 0), (0, 1), (1, 0), (300, 300), (299, 300), (300, 0), (150, 151), (151, 151)] + [
    (int(m), int(n)) for m, n in np.random.default_rng(16).integers(0, 301, (32, 2))
]


@pytest.mark.parametrize("scale", list(LengthScale))
def test_cos_matches_the_closed_form_elements(scale):
    # Measured once over the whole top-left 301 block against
    # oracles.ho_cos_element (60 digits, 1001-state embedding), the largest
    # errors were 41 eps in cos(theta) and 45 eps in sin(theta), both at the
    # plasma scale; |cos 2 pi A| 41 + |sin 2 pi A| 45 <= 62 for every A.
    theta0 = length_scale(FLUXONIUM, scale)
    c = cos_in_ho(HoBasis(theta0, 301, 1001), _FLUX).entries
    got = np.array([c[m, n] for m, n in _ENTRIES])
    want = np.array([ho_cos_element(theta0, _FLUX, m, n) for m, n in _ENTRIES])
    assert np.abs(got - want).max() <= 64 * _EPS


@pytest.mark.parametrize("scale", list(LengthScale))
def test_cos_at_half_integer_2A_has_exactly_zero_off_parity_entries(scale):
    basis = HoBasis(length_scale(FLUXONIUM, scale), 301, 1001)
    at_zero = cos_in_ho(basis, 0.0).entries
    for A, sign in ((0.0, 1.0), (0.5, -1.0), (1.0, 1.0)):
        c = cos_in_ho(basis, A).entries
        assert not c[0::2, 1::2].any() and not c[1::2, 0::2].any()
        assert np.array_equal(c, sign * at_zero)


@pytest.mark.parametrize("A", [0.0, 0.5, -1.5, 0.3, 0.37, 1.25, -0.1])
def test_cos_blocks_are_the_parity_slices_of_the_cosine(A):
    # the block between the parities is None exactly where 2A is an integer
    basis = HoBasis(2.5, 21, 1001)
    even, odd, off = ho.cos_blocks(basis, A)
    assert (off is None) == float(2 * A).is_integer()
    c = cos_in_ho(basis, A).entries
    assert np.array_equal(even, c[0::2, 0::2]) and np.array_equal(odd, c[1::2, 1::2])
    assert np.array_equal(c[1::2, 0::2], np.zeros((10, 11)) if off is None else off)
    assert np.array_equal(c, ho.from_parity_blocks(even, odd, off))


@pytest.mark.parametrize("scale", list(LengthScale))
def test_cos_matches_the_full_embedding(scale):
    # both routes are within 64 eps of the closed forms (the bound of
    # test_cos_matches_the_closed_form_elements)
    basis = HoBasis(length_scale(FLUXONIUM, scale), 301, 1001)
    got = cos_in_ho(basis, _FLUX).entries
    assert np.abs(got - cos_in_ho_by_full_embedding(basis, _FLUX)).max() <= 128 * _EPS


def test_cos_rejects_an_embedding_whose_theta_squared_overflows():
    # theta0^2 m / 2 overflows from m = 4 on
    with pytest.raises(ConfigError, match="not finite"):
        cos_in_ho(HoBasis(1e154, 3, 101), 0.5)


def test_cos_truncation_insensitive():
    dim = 40
    small = cos_in_ho(HoBasis(2.5, dim, dim + 200), 0.0).entries
    big = cos_in_ho(HoBasis(2.5, dim, 1001), 0.0).entries
    assert np.abs(small - big).max() < 1e-10


def test_fluxonium_quadratic_part_is_diagonal_ladder():
    # 4 E_C N^2 + (E_L/2) theta^2 at the LC length scale is omega_LC (m + 1/2).
    theta0 = length_scale(FLUXONIUM, LengthScale.LC)
    theta2, n2 = _quadratic_matrices(HoBasis(theta0, 30, 1001))
    h = 4.0 * FLUXONIUM.E_C * n2 + 0.5 * FLUXONIUM.E_L * theta2
    omega = math.sqrt(8.0 * FLUXONIUM.E_C * FLUXONIUM.E_L)
    expect = omega * (np.arange(30) + 0.5)
    assert np.abs(h - np.diag(expect)).max() < 1e-12 * omega * 30
