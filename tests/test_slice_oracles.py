"""The slice pattern P(k1, k2, m), g_km and the slices' reuse against the
bodies they replaced.

The oracles below are the old closed route of product_B (hand-written
monomial lists for the chi(0) terms and the principal part), the old
kron_laurent loop (theta-derivatives of G + H over r! s!), the old
slice_cusp_data (its own monomial list per pair sum), the direct per-m1
convolution sum of conv_g (no reuse of the swapped pair, and each
Eisenstein combination of a conjugate pair built from its own divisor
sums) and the per-monomial extract_rank_one_cusp (one solve, one
remainder and one proportionality test per monomial), which is also the
reference for the closed-form Eisenstein multipliers at levels with two
primes.  Coefficient types are
report bytes, so series are compared on their JSON form, and the cusp data
and multipliers on value and type.
"""

from fractions import Fraction
from math import factorial, prod

import pytest

from kronlab import linalg
from kronlab.arith import bernoulli_number
from kronlab.dirichlet import bernoulli_pair, enumerate_characters, trivial_character
from kronlab.kronecker import conv_g, eisenstein_combo, g_km, kron_laurent, product_B
from kronlab.modforms import (
    ExtractionResult,
    RankError,
    eisenstein_g_chi,
    eisenstein_h_chi,
    eisenstein_g_eps,
    eisenstein_signs,
    extract_rank_one_cusp,
    slice_cusp_data,
    slice_monomials,
)
from kronlab.ntheory import divisors, prime_divisors
from kronlab.periods import bivar_scale, eisenstein_R, generating_C
from kronlab.series import BiJet, QSeries, TriGen, qs_add, qs_proportional, qs_scale, qs_sum, theta_op

KMAX = 10
PREC = 20


# every even primitive character up to conjugation, labelled by its --char index
LABELLED = {}
for N in (1, 5, 7, 13, 17):
    for i, chi in enumerate(enumerate_characters(N)):
        if chi.is_even() and chi.is_primitive() and chi.conjugate() not in LABELLED.values():
            LABELLED[f"N{N}-char{i}"] = chi
CHARS, IDS = list(LABELLED.values()), list(LABELLED)

# the same at levels with two primes, where the sign characters form (Z/2)^2
TWO_PRIME = {}
for N in (15, 21, 33, 35, 39):
    for i, chi in enumerate(enumerate_characters(N)):
        if chi.is_even() and chi.is_primitive() and chi.conjugate() not in TWO_PRIME.values():
            TWO_PRIME[f"N{N}-char{i}"] = chi


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
                coeff = conv_g(k1, k2, m, chi, prec)
                if coeff.is_zero():
                    continue
                for a, b, sign in _oracle_poly_terms(k1, k2, m):
                    add((a, b), 1 if sign > 0 else -1, coeff)

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
    return TriGen(weights, principal)


def _oracle_kron_laurent(chi, prec, degree):
    entries = {}
    for t in range(1, degree + 1, 2):
        for r in range(t + 1):
            s = t - r
            combo = eisenstein_combo(abs(r - s) + 1, chi, prec)
            scale = Fraction(-1, factorial(r) * factorial(s))
            entries[(r, s)] = qs_scale(theta_op(combo, min(r, s)), scale)
    return BiJet(degree, prec, entries, chi.scalar(0))


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
        got = slice_cusp_data(k, chi)
        want = _oracle_slice_cusp_data(k, chi.modulus, chi)
        assert got == want
        for M, row in want.items():
            assert {key: type(v) for key, v in got[M].items()} == {key: type(v) for key, v in row.items()}


def _oracle_conv_g(k1, k2, m, chi, prec):
    chibar = chi.conjugate()
    c0 = chi.scalar(0)
    terms = []
    for m1 in range(-1, m + 2):
        m2 = m - m1
        if m2 < -1:
            continue
        sign = -1 if m2 % 2 else 1
        if m1 == -1:
            if k1 == 2 and c0 != 0:
                terms.append((sign * c0, g_km(k2, m2, chibar, prec), None))
        elif m2 == -1:
            if k2 == 2 and c0 != 0:
                terms.append((-c0, g_km(k1, m1, chi, prec), None))
        else:
            terms.append((sign, g_km(k1, m1, chi, prec), g_km(k2, m2, chibar, prec)))
    return qs_sum(terms) if terms else QSeries.zero(prec)


def _oracle_extract_rank_one_cusp(slice_rows, k, chi, prec):
    N = chi.modulus
    eps_list = eisenstein_signs(N, k)
    forms = [eisenstein_g_eps(k, e, prec) for e in eps_list]
    ms = divisors(N)
    gk0 = -bernoulli_number(k) / (2 * k)
    matrix = [
        [
            Fraction(e(M))
            * prod((1 + e(p) * p ** (k // 2) for p in prime_divisors(N)), start=Fraction(1))
            * gk0
            for e in eps_list
        ]
        for M in ms
    ]
    cusp_data = slice_cusp_data(k, chi)
    keys = set(slice_rows)
    for M in ms:
        keys |= set(cusp_data[M])
    multipliers = {e.label(): {} for e in eps_list}
    remainder_rows = {}
    for key in sorted(keys):
        rhs = [cusp_data[M].get(key, Fraction(0)) for M in ms]
        if eps_list:
            lam = linalg.solve(matrix, rhs)
        else:
            if any(r != 0 for r in rhs):
                raise RankError(-1, "nonzero cusp data with empty Eisenstein basis")
            lam = []
        terms = [(1, slice_rows.get(key, QSeries.zero(prec)), None)]
        for lam_e, form, e in zip(lam, forms, eps_list):
            if lam_e != 0:
                multipliers[e.label()][key] = lam_e
                terms.append((-lam_e, form, None))
        row = qs_sum(terms)
        if not row.is_zero():
            if row.coeff(0) != 0:
                raise RankError(-1, f"remainder at {key} has a constant term")
            remainder_rows[key] = row
    if not remainder_rows:
        return ExtractionResult(k, N, 0, multipliers)
    pivot = remainder_rows[min(remainder_rows)]
    if not all(qs_proportional(row, pivot) for row in remainder_rows.values()):
        rk = linalg.rank([list(q.coeffs) for q in remainder_rows.values()])
        raise RankError(rk, f"cusp remainder has rank {rk} > 1")
    a1 = pivot.coeff(1)
    if a1 == 0:
        raise RankError(1, "pivot cusp row has a(1) = 0")
    eigen = qs_scale(pivot, Fraction(1) / a1)
    r_poly = {key: row.coeff(1) for key, row in remainder_rows.items()}
    return ExtractionResult(k, N, 1, multipliers, eigen, r_poly)


def _typed(poly):
    return {key: (val, type(val)) for key, val in poly.items()}


def _extraction_outcome(fn, *args):
    """The fields of an ExtractionResult, or a RankError's rank and message."""
    try:
        res = fn(*args)
    except RankError as exc:
        return "RankError", exc.rank, str(exc)
    return (
        res.rank,
        {label: _typed(poly) for label, poly in res.multipliers.items()},
        res.eigenform.to_json() if res.eigenform else None,
        _typed(res.r_poly) if res.r_poly else None,
    )


@pytest.mark.parametrize("chi", CHARS, ids=IDS)
def test_conv_g_matches_direct_sum(chi):
    # k1 > k2 is read from the swapped pair, through sigma for a non-real
    # character; k1 <= k2 takes the Leibniz products theta_product(k1, k2, t)
    for k1 in range(2, 15, 2):
        for k2 in range(2, 17 - k1, 2):
            for m in range((16 - k1 - k2) // 2 + 1):
                want = _oracle_conv_g(k1, k2, m, chi, PREC)
                assert conv_g(k1, k2, m, chi, PREC).to_json() == want.to_json(), (k1, k2, m)


# both members of every non-real conjugate pair, labelled by --char: one of
# each pair is built from divisor sums, the other read through sigma
CONJUGATE_PAIRS = {
    f"N{N}-char{i}": chi
    for N in (7, 13, 17)
    for i, chi in enumerate(enumerate_characters(N))
    if chi.is_even() and chi.is_primitive() and chi.order > 2
}


@pytest.mark.parametrize("chi", list(CONJUGATE_PAIRS.values()), ids=list(CONJUGATE_PAIRS))
def test_conjugate_pair_members_match_their_direct_builds(chi):
    for k in range(2, 13, 2):
        got = eisenstein_combo(k, chi, PREC)
        want = qs_add(eisenstein_g_chi(k, chi.conjugate(), PREC), eisenstein_h_chi(k, chi, PREC))
        assert got == want and got.order == want.order, k
        assert got.to_json() == want.to_json(), k
    for k1 in range(4, 13, 2):
        for k2 in range(2, min(k1, 14 - k1), 2):
            for m in range((12 - k1 - k2) // 2 + 1):
                got, want = conv_g(k1, k2, m, chi, PREC), _oracle_conv_g(k1, k2, m, chi, PREC)
                assert got == want and got.order == want.order, (k1, k2, m)
                assert got.to_json() == want.to_json(), (k1, k2, m)


def _oracle_c_rows(k, chi, prec):
    # the eager build: every multiplier's monomials over G_{k,N}^eps, one qs_sum each
    terms = {}
    for eps in eisenstein_signs(chi.modulus, k):
        poly = bivar_scale(eisenstein_R(k, eps, chi), Fraction(1, factorial(k - 2)))
        for key, c in poly.items():
            terms.setdefault(key, []).append((c, eisenstein_g_eps(k, eps, prec), None))
    rows = {key: qs_sum(ts) for key, ts in terms.items()}
    return {key: q for key, q in rows.items() if not q.is_zero()}


@pytest.mark.parametrize("chi", CHARS, ids=IDS)
def test_c_rows_match_the_eager_build(chi):
    # the rows, built on first read, at every weight: those that
    # suite_identity compares with a rank-0 slice among them
    for k in range(2, KMAX + 1, 2):
        cside = generating_C(k, chi, PREC)
        rows = cside.rows
        want = _oracle_c_rows(k, chi, PREC)
        assert list(rows) == list(want)
        assert {key: q.to_json() for key, q in rows.items()} == {key: q.to_json() for key, q in want.items()}
        assert cside.rows is rows


@pytest.mark.parametrize("chi", [c for c in CHARS if c.modulus in (1, 5, 7, 13)],
                         ids=[i for i, c in zip(IDS, CHARS) if c.modulus in (1, 5, 7, 13)])
def test_extract_rank_one_cusp_matches_per_monomial_body(chi):
    # the slices as product_B gives them (mirror rows share one object), and
    # a copy with one row of each slice changed, so that its mirror is no
    # longer the same: both give the per-monomial result, or its RankError
    tri = product_B(chi, 8, PREC)
    outcomes = set()
    for k in range(2, 9, 2):
        rows = tri.weights.get(k, {})
        broken = dict(rows)
        if rows:
            last = max(rows)
            broken[last] = qs_scale(rows[last], 2)
        for slice_rows in (rows, broken):
            got = _extraction_outcome(extract_rank_one_cusp, slice_rows, k, chi, PREC)
            want = _extraction_outcome(_oracle_extract_rank_one_cusp, slice_rows, k, chi, PREC)
            assert got == want, (k, got, want)
            outcomes.add(got[0])
    assert 0 in outcomes and "RankError" in outcomes


@pytest.mark.parametrize("chi", list(TWO_PRIME.values()), ids=list(TWO_PRIME))
def test_closed_form_multipliers_match_the_solve_at_two_primes(chi):
    # the Eisenstein part of C is the slice with a zero remainder at any cusp
    # rank, so both give rank 0 and their multipliers, compared on value and type
    nonzero = 0
    for k in range(2, 11, 2):
        rows = generating_C(k, chi, 8).rows
        got = _extraction_outcome(extract_rank_one_cusp, rows, k, chi, 8)
        want = _extraction_outcome(_oracle_extract_rank_one_cusp, rows, k, chi, 8)
        assert got == want and got[0] == 0, (k, got, want)
        nonzero += sum(len(poly) for poly in got[1].values())
    assert nonzero
