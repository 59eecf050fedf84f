"""The producers on series.divisor_sum against the loops they replaced.

The oracles below are the old coefficient-list bodies of eisenstein_g
(with its sigma table), eisenstein_g_chi, eisenstein_h_chi and kron_fourier,
and divisor_sum's own earlier loop, one pass over the divisor pairs per
piece, against its one pass per exponent table.
Coefficient types are report bytes, so every series is compared on value,
Cyclotomic-ness, order and JSON form.  A coefficient's type follows from its
value and its series' field, so the old loop (which skipped a divisor pair
with chi(d) + chi(e) = 0) and the kernel (which adds its two halves) agree
on types at every level here.
"""

from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from kronlab.arith import Cyclotomic, _reduce_rows, bernoulli_number, lift_slots, scalar_to_json
from kronlab.dirichlet import enumerate_characters, twisted_bernoulli
from kronlab.kronecker import eisenstein_combo, kron_fourier
from kronlab.modforms import eisenstein_g, eisenstein_g_chi, eisenstein_h_chi
from kronlab.ntheory import divisors, euler_phi
from kronlab.series import BiJet, QSeries, divisor_sum, qs_add

PREC = 30
WEIGHTS = (2, 4, 6, 8)
CHARS = [
    chi
    for N in (1, 5, 7, 13, 17)
    for chi in enumerate_characters(N)
    if chi.is_even() and chi.is_primitive()
]


def _oracle_g(k, prec):
    coeffs = [0] * prec
    for d in range(1, prec):
        dk = d ** (k - 1)
        for n in range(d, prec, d):
            coeffs[n] += dk
    coeffs[0] = -bernoulli_number(k) / (2 * k)
    return QSeries(prec, coeffs)


def _oracle_g_chi(k, chi, prec):
    chibar = chi.conjugate()
    coeffs = [0] * prec
    for d in range(1, prec):
        v = chibar.scalar(d)
        if not v:
            continue
        term = v * (d ** (k - 1))
        for n in range(d, prec, d):
            coeffs[n] = coeffs[n] + term
    coeffs[0] = Fraction(-1, 2 * k) * twisted_bernoulli(k, chibar)
    return QSeries(prec, coeffs)


def _oracle_h_chi(k, chi, prec):
    coeffs = [0] * prec
    for d in range(1, prec):
        dk = d ** (k - 1)
        for n in range(d, prec, d):
            v = chi.scalar(n // d)
            if v:
                coeffs[n] = coeffs[n] + v * dk
    if chi.modulus == 1:
        coeffs[0] = -bernoulli_number(k) / (2 * k)
    return QSeries(prec, coeffs)


def _oracle_kron_fourier(chi, prec, degree):
    double = 2 if chi.modulus == 1 else 1
    cells = {}
    for t in range(1, degree + 1, 2):
        for r in range(t + 1):
            cells[(r, t - r)] = [0] * prec
    for r in range(1, degree + 1, 2):
        b = twisted_bernoulli(r + 1, chi)
        if b != 0:
            val = b * Fraction(double, 2 * factorial(r + 1))
            cells[(r, 0)][0] = val
            cells[(0, r)][0] = val
    for n in range(1, prec):
        for d in divisors(n):
            e = n // d
            w = chi.scalar(d) + chi.scalar(e)
            if w == 0:
                continue
            for (r, s), col in cells.items():
                col[n] = col[n] - w * Fraction(d**r * e**s, factorial(r) * factorial(s))
    c0 = chi.scalar(0)
    return BiJet(degree, prec, {key: QSeries(prec, col) for key, col in cells.items()}, c0)


def _assert_same_coefficients(got, want):
    assert got.prec == want.prec
    for n, (x, y) in enumerate(zip(got.coeffs, want.coeffs)):
        assert x == y, n
        assert isinstance(x, Cyclotomic) == isinstance(y, Cyclotomic), n
        assert getattr(x, "order", None) == getattr(y, "order", None), n
        assert scalar_to_json(x) == scalar_to_json(y), n


@pytest.mark.parametrize("k", WEIGHTS)
def test_eisenstein_g_matches_the_sigma_table(k):
    _assert_same_coefficients(eisenstein_g(k, PREC), _oracle_g(k, PREC))


@pytest.mark.parametrize("chi", CHARS)
def test_twisted_eisenstein_series_match_the_loops(chi):
    for k in WEIGHTS:
        _assert_same_coefficients(eisenstein_g_chi(k, chi, PREC), _oracle_g_chi(k, chi, PREC))
        _assert_same_coefficients(eisenstein_h_chi(k, chi, PREC), _oracle_h_chi(k, chi, PREC))


@pytest.mark.parametrize("chi", CHARS)
def test_kron_fourier_matches_the_loop(chi):
    got, want = kron_fourier(chi, 20, 7), _oracle_kron_fourier(chi, 20, 7)
    assert got.polar == want.polar
    assert list(got.entries) == list(want.entries)
    for key in want.entries:
        _assert_same_coefficients(got.entry(*key), want.entry(*key))


def _oracle_divisor_sum(prec, order, pieces, constant=0):
    """divisor_sum with one pass over the divisor pairs per piece."""
    pieces = [(Fraction(c), t, a, b) for c, t, a, b in pieces]
    if isinstance(constant, Cyclotomic):
        hden, head = constant.den, lift_slots(constant.nums, constant.order, order)
    else:
        hden, head = constant.denominator, [constant.numerator]
    den = lcm(hden, *(c.denominator for c, _, _, _ in pieces))
    slots = [0] * (prec * order)
    for c, t, a, b in pieces:
        s = c.numerator * (den // c.denominator)
        eb = [e**b for e in range(prec)]
        for d in range(1, prec):
            x = t[d % len(t)]
            if x is None:
                continue
            sd = s * d**a
            for n in range(d, prec, d):
                slots[n * order + x] += sd * eb[n // d]
    phi = euler_phi(order)
    ints = _reduce_rows(order, slots, order)
    ints[:phi] = [x * (den // hden) for x in head] + [0] * (phi - len(head))
    if not any(any(ints[j::phi]) for j in range(1, phi)):
        order, ints = 1, ints[::phi]
    g = gcd(den, *ints)
    return QSeries._of(prec, order, den // g, [x // g for x in ints])


def _assert_same_series(got, want):
    """Equal value, field, slot form and JSON form."""
    assert got == want
    assert (got.prec, got.order, got.den, got.ints) == (want.prec, want.order, want.den, want.ints)
    assert got.to_json() == want.to_json()


_SCALES = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-4, max_value=4, max_denominator=6)
)


@st.composite
def _divisor_sum_call(draw):
    """(prec, order, pieces, constant): pieces over one to three exponent
    tables (each piece reads one of them, the same object), some followed by
    their (b, a) swap, and a rational or Cyclotomic constant."""
    order = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12)))
    entry = st.one_of(st.none(), st.integers(0, order - 1))
    tables = [
        tuple(draw(st.lists(entry, min_size=1, max_size=7)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    pieces = []
    for _ in range(draw(st.integers(1, 5))):
        c, t = draw(_SCALES), draw(st.sampled_from(tables))
        a, b = draw(st.integers(0, 5)), draw(st.integers(0, 5))
        pieces.append((c, t, a, b))
        if draw(st.booleans()):
            pieces.append((c, t, b, a))
    m = draw(st.sampled_from(divisors(order)))
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=8)
    if m > 1 and draw(st.booleans()):
        constant = Cyclotomic(m, draw(st.lists(rational, min_size=euler_phi(m), max_size=euler_phi(m))))
    else:
        constant = draw(rational)
    return draw(st.integers(1, 16)), order, pieces, constant


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_divisor_sum_call())
def test_divisor_sum_matches_the_per_piece_loop(call):
    _assert_same_series(divisor_sum(*call), _oracle_divisor_sum(*call))


@pytest.mark.parametrize("order", (1, 2, 3, 4, 5, 6, 8, 12))
def test_divisor_sum_sums_every_piece_of_a_table(order):
    # one table read by one, two and three pieces, with int and Fraction scales
    t = tuple(None if d % 7 == 0 else (d * d) % order for d in range(7))
    for pieces in (
        [(1, t, 3, 0)],
        [(1, t, 3, 0), (1, t, 0, 3)],
        [(Fraction(-1, 6), t, 1, 2), (Fraction(-1, 6), t, 2, 1)],
        [(2, t, 0, 0), (Fraction(1, 3), t, 1, 4), (-1, t, 4, 1)],
    ):
        for constant in (0, Fraction(-1, 12), Cyclotomic.zeta(order) if order > 1 else 5):
            call = (24, order, pieces, constant)
            _assert_same_series(divisor_sum(*call), _oracle_divisor_sum(*call))


COMBO_CHARS = [
    pytest.param(chi, id=f"N{N}-char{i}")
    for N in (1, 5, 7, 13, 17, 21, 39, 41)
    for i, chi in enumerate(enumerate_characters(N))
    if chi.is_even() and chi.is_primitive()
]


@pytest.mark.parametrize("chi", COMBO_CHARS)
def test_eisenstein_combo_matches_the_sum_of_its_two_series(chi):
    # G_{k,conj(chi)} + H_{k,chi}: one divisor sum at N > 1, G_k + G_k at N = 1;
    # both members of each conjugate pair are listed
    for k in range(2, 21, 2):
        got = eisenstein_combo(k, chi, PREC)
        want = qs_add(eisenstein_g_chi(k, chi.conjugate(), PREC), eisenstein_h_chi(k, chi, PREC))
        assert got == want
        assert got.order == want.order
        assert got.to_json() == want.to_json()
