"""The producers on series.divisor_sum against the loops they replaced.

The oracles below are the old coefficient-list bodies of eisenstein_g
(with its sigma table), eisenstein_g_chi, eisenstein_h_chi and kron_fourier.
Coefficient types are report bytes, so every series is compared on value,
Cyclotomic-ness, order and JSON form.  A coefficient's type follows from its
value and its series' field, so the old loop (which skipped a divisor pair
with chi(d) + chi(e) = 0) and the kernel (which adds its two halves) agree
on types at every level here.
"""

from fractions import Fraction
from math import factorial

import pytest

from kronlab.arith import Cyclotomic, bernoulli_number, scalar_to_json
from kronlab.dirichlet import enumerate_characters, twisted_bernoulli
from kronlab.kronecker import kron_fourier
from kronlab.modforms import eisenstein_g, eisenstein_g_chi, eisenstein_h_chi
from kronlab.ntheory import divisors
from kronlab.series import BiJet, QSeries

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

