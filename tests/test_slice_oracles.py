"""The slice pattern P(k1, k2, m) and g_km against the bodies they replaced.

The oracles below are the old closed route of product_B (hand-written
monomial lists for the chi(0) terms and the principal part), the old
kron_laurent loop (theta-derivatives of G + H over r! s!) and the old
slice_cusp_data (its own monomial list per pair sum).  Coefficient types are
report bytes, so product_B and the Laurent jet are compared on their JSON
form, and the cusp data on value and type.
"""

from fractions import Fraction
from math import factorial

import pytest

from kronlab.dirichlet import bernoulli_pair, enumerate_characters, trivial_character
from kronlab.kronecker import _conv_g, eisenstein_combo, g_km, kron_laurent, product_B
from kronlab.modforms import slice_cusp_data, slice_monomials
from kronlab.ntheory import divisors
from kronlab.series import BiJet, TriGen, qs_scale, qs_sum, theta_op

KMAX = 10
PREC = 20


# every even primitive character up to conjugation, labelled by its --char index
LABELLED = {}
for N in (1, 5, 7, 13, 17):
    for i, chi in enumerate(enumerate_characters(N)):
        if chi.is_even() and chi.is_primitive() and chi.conjugate() not in LABELLED.values():
            LABELLED[f"N{N}-char{i}"] = chi
CHARS, IDS = list(LABELLED.values()), list(LABELLED)


def _oracle_poly_terms(k1, k2, m):
    out = []
    for (a, b) in ((k1 - 1 + m, m), (m, k1 - 1 + m)):
        out.append((a, b, 1))
        out.append((a + k2 - 1, b + k2 - 1, -1))
    return out


def _oracle_product_B(chi, kmax, prec):
    chibar = chi.conjugate()
    c0 = chi.scalar(0)
    weights = {}
    for k in range(2, kmax + 1, 2):
        terms = {}

        def add(key, scale, series):
            terms.setdefault(key, []).append((scale, series, None))

        for k1 in range(2, k - 1, 2):
            for k2 in range(2, k - k1 + 1, 2):
                m = (k - k1 - k2) // 2
                if k1 + k2 + 2 * m != k:
                    continue
                coeff = _conv_g(k1, k2, m, chi, prec)
                if coeff.is_zero():
                    continue
                for a, b, sign in _oracle_poly_terms(k1, k2, m):
                    add((a, b), None if sign > 0 else -1, coeff)

        if c0 != 0:
            gk_bar = g_km(k, 0, chibar, prec)
            gk = g_km(k, 0, chi, prec)
            for key, sign in (((-1, 0), 1), ((0, -1), 1), ((k - 2, k - 1), -1), ((k - 1, k - 2), -1)):
                add(key, sign * c0, gk_bar)
            for key, sign in (((k - 1, 0), 1), ((0, k - 1), 1), ((k - 2, -1), -1), ((-1, k - 2), -1)):
                add(key, sign * c0, gk)
        row = {key: qs_sum(ts) for key, ts in terms.items()}
        weights[k] = {key: q for key, q in row.items() if not q.is_zero()}

    principal = None
    if c0 != 0:
        c = c0 * c0
        principal = {(0, -1): c, (-1, 0): c, (-1, -2): -c, (-2, -1): -c}
    return TriGen(kmax, prec, weights, principal)


def _oracle_kron_laurent(chi, prec, degree):
    entries = {}
    for t in range(1, degree + 1, 2):
        for r in range(t + 1):
            s = t - r
            combo = eisenstein_combo(abs(r - s) + 1, chi, prec)
            scale = Fraction(-1, factorial(r) * factorial(s))
            entries[(r, s)] = qs_scale(theta_op(combo, min(r, s)), scale)
    c0 = chi.scalar(0)
    return BiJet(degree, prec, entries, polar_u=c0, polar_v=c0)


def _oracle_slice_cusp_data(k, N, chi):
    chibar = chi.conjugate()
    out = {}

    def pair_sum(first_char, second_char, scale):
        rows = {}
        for e, pair in bernoulli_pair(k, first_char, second_char).items():
            c = pair * scale / 4
            for key, sgn in (
                ((k - 2, k - 2 - e), -1),
                ((k - 2 - e, k - 2), -1),
                ((e, 0), 1),
                ((0, e), 1),
            ):
                rows[key] = rows.get(key, Fraction(0)) + sgn * c
        return rows

    for M in divisors(N):
        rows = {}

        def accumulate(part):
            for key, val in part.items():
                rows[key] = rows.get(key, Fraction(0)) + val

        if M == 1:
            accumulate(pair_sum(chi, chibar, Fraction(1)))
        if M == N:
            accumulate(pair_sum(chibar, chi, Fraction(1, N ** ((k - 2) // 2))))
        if N == 1:
            triv = trivial_character(1)
            accumulate(pair_sum(triv, triv, Fraction(2)))
        out[M] = {key: val for key, val in rows.items() if val != 0}
    return out


def test_slice_monomials_give_the_hand_written_lists():
    k = 8
    assert sorted(slice_monomials(0, 0, 0)) == [(-2, -1, -1), (-1, -2, -1), (-1, 0, 1), (0, -1, 1)]
    assert sorted(slice_monomials(0, k, 0)) == [(-1, 0, 1), (0, -1, 1), (k - 2, k - 1, -1), (k - 1, k - 2, -1)]
    assert sorted(slice_monomials(k, 0, 0)) == [(-1, k - 2, -1), (0, k - 1, 1), (k - 2, -1, -1), (k - 1, 0, 1)]
    for k1, k2, m in [(2, 2, 0), (4, 2, 1), (2, 6, 2)]:
        assert slice_monomials(k1, k2, m) == _oracle_poly_terms(k1, k2, m)


@pytest.mark.parametrize("chi", CHARS, ids=IDS)
def test_product_B_matches_old_closed_route(chi):
    assert product_B(chi, KMAX, PREC).to_json() == _oracle_product_B(chi, KMAX, PREC).to_json()


@pytest.mark.parametrize("chi", CHARS, ids=IDS)
def test_kron_laurent_matches_old_loop(chi):
    assert kron_laurent(chi, PREC, KMAX).to_json() == _oracle_kron_laurent(chi, PREC, KMAX).to_json()


@pytest.mark.parametrize("chi", CHARS, ids=IDS)
def test_slice_cusp_data_matches_old_monomial_list(chi):
    for k in range(2, KMAX + 1, 2):
        got = slice_cusp_data(k, chi.modulus, chi)
        want = _oracle_slice_cusp_data(k, chi.modulus, chi)
        assert got == want
        for M, row in want.items():
            assert {key: type(v) for key, v in got[M].items()} == {key: type(v) for key, v in row.items()}
