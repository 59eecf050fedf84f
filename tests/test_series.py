from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings, strategies as st

from kronlab.arith import Cyclotomic, RingMismatchError, scalar_to_json
from kronlab.checks import even_primitive_characters
from kronlab.dirichlet import trivial_character
from kronlab.kronecker import kron_fourier
from kronlab.modforms import eisenstein_g
from kronlab.ntheory import euler_phi
from kronlab.series import (
    BiJet,
    PrecisionError,
    QSeries,
    TriGen,
    bijet_substitute,
    orbit_sums,
    qs_add,
    qs_mul,
    qs_proportional,
    qs_rescale,
    qs_scale,
    qs_sum,
    qs_sums,
    slice_orbits,
    theta_op,
    trigen_mul,
)


def test_mul_example():
    a = QSeries(3, [1, 1])      # 1 + q
    b = QSeries(3, [1, -1])     # 1 - q
    assert qs_mul(a, b) == QSeries(3, [1, 0, -1])


def test_g4_square_constant():
    g4 = eisenstein_g(4, 6)
    sq = qs_mul(g4, g4)
    assert sq.coeffs[0] == Fraction(1, 57600)


def test_precision_law():
    a = QSeries(5, [1, 2, 3, 4, 5])
    b = QSeries(3, [1, 1, 1])
    assert qs_mul(a, b).prec == 3
    assert qs_add(a, b).prec == 3


def test_coeff_beyond_precision_raises():
    a = QSeries(4, [1, 2, 3, 4])
    with pytest.raises(PrecisionError):
        a.coeff(4)
    assert a.coeff(3) == 4


def test_theta_op():
    g4 = eisenstein_g(4, 5)
    assert theta_op(g4, 0) == g4
    assert theta_op(g4, 1).coeffs[2] == 18
    q = QSeries(4, [0, 1])
    assert theta_op(q, 2) == q


def test_rescale():
    f = QSeries(6, [0, 1, 1])  # q + q^2
    assert qs_rescale(f, 1) == f
    assert qs_rescale(f, 2) == QSeries(6, [0, 0, 1, 0, 1])
    g4 = eisenstein_g(4, 8)
    assert qs_rescale(g4, 5).coeffs[0] == Fraction(1, 240)


def test_ring_mismatch():
    from kronlab.arith import Cyclotomic

    a = QSeries(3, [Cyclotomic.zeta(5), 0, 0])
    with pytest.raises(RingMismatchError):  # refused when built
        qs_mul(a, QSeries(3, [0.5 + 0j, 0, 0]))


def _simple_jet(prec=4, degree=3):
    entries = {
        (1, 0): QSeries(prec, [Fraction(1, 2), 1]),
        (0, 1): QSeries(prec, [Fraction(1, 2), 1]),
        (2, 1): QSeries(prec, [0, -1]),
        (1, 2): QSeries(prec, [0, -1]),
    }
    return BiJet(degree, prec, entries, polar=1)


def test_substitute_monomials():
    jet = _simple_jet()
    a = bijet_substitute(jet, "XT_YT")
    # u^1 v^0 -> X T, carrying its q-series unchanged
    assert a[1][(1, 0)] == jet.entries[(1, 0)]
    # polar slots land at T^(-1) as X^(-1) resp. Y^(-1) records
    assert a[-1][(-1, 0)].coeffs[0] == 1
    b = bijet_substitute(jet, "T_-XYT")
    # u^0 v^1 -> -XY T
    assert b[1][(1, 1)].coeffs[0] == Fraction(-1, 2)
    # polar 1/u -> T^(-1) record at (0, 0); 1/v -> -(XY)^(-1) T^(-1)
    assert b[-1][(0, 0)].coeffs[0] == 1
    assert b[-1][(-1, -1)].coeffs[0] == -1


def test_trigen_principal_from_polar_product():
    jet = _simple_jet()
    tri = trigen_mul(bijet_substitute(jet, "XT_YT"), bijet_substitute(jet, "T_-XYT"), 6)
    assert tri.principal == {(0, -1): 1, (-1, 0): 1, (-1, -2): -1, (-2, -1): -1}


def test_trigen_weight_bound():
    jet = _simple_jet()
    tri = trigen_mul(bijet_substitute(jet, "XT_YT"), bijet_substitute(jet, "T_-XYT"), 4)
    for k, row in tri.weights.items():
        assert 2 <= k <= 4
        for (a, b) in row:
            assert a <= k - 1 and b <= k - 1


def _oracle_trigen_mul(A: dict, B: dict, kmax: int) -> TriGen:
    """trigen_mul one monomial at a time: each (weight, X^a Y^b) row is its
    own qs_sum of its products, with a row (possibly empty) for every even
    weight 2..kmax."""
    terms: dict[int, dict] = {k: {} for k in range(2, kmax + 1, 2)}
    principal: dict = {}
    for ta, rows_a in A.items():
        for tb, rows_b in B.items():
            t = ta + tb
            if t == -2:
                for (a1, b1), f in rows_a.items():
                    for (a2, b2), g in rows_b.items():
                        key = (a1 + a2, b1 + b2)
                        principal[key] = principal.get(key, 0) + f.coeffs[0] * g.coeffs[0]
                continue
            k = t + 2
            if k < 2 or k > kmax:
                continue
            row = terms.setdefault(k, {})
            for (a1, b1), f in rows_a.items():
                for (a2, b2), g in rows_b.items():
                    row.setdefault((a1 + a2, b1 + b2), []).append((1, f, g))
    weights = {}
    for k, row in terms.items():
        sums = {key: qs_sum(ts) for key, ts in row.items()}
        weights[k] = {key: q for key, q in sums.items() if not q.is_zero()}
    principal = {k: v for k, v in principal.items() if v != 0} or None
    return TriGen(weights, principal)


def _assert_same_trigen(got: TriGen, want: TriGen):
    """Row by row the same monomials, JSON, order and denominator, and the
    same principal part."""
    assert got.principal == want.principal
    assert sorted(got.weights) == sorted(want.weights)
    for k, row in want.weights.items():
        assert list(got.weights[k]) == list(row)
        for key, q in row.items():
            p = got.weights[k][key]
            assert (p.to_json(), p.order, p.den) == (q.to_json(), q.order, q.den), (k, key)


def _characters_up_to_conjugation(N: int) -> list:
    if N == 1:
        return [trivial_character(1)]
    chars = []
    for chi in even_primitive_characters(N):
        if chi.conjugate() not in chars:
            chars.append(chi)
    return chars


@pytest.mark.parametrize("kmax, prec", [(8, 20), (12, 12)])
@pytest.mark.parametrize("N", [1, 5, 7, 13, 17, 41])
def test_trigen_mul_matches_the_per_monomial_oracle(N, kmax, prec):
    for chi in _characters_up_to_conjugation(N):
        A = bijet_substitute(kron_fourier(chi, prec, kmax), "XT_YT")
        B = bijet_substitute(kron_fourier(chi.conjugate(), prec, kmax), "T_-XYT")
        _assert_same_trigen(trigen_mul(A, B, kmax), _oracle_trigen_mul(A, B, kmax))


def test_trigen_mul_keeps_each_rows_order():
    # layers that mix order-1 and order-m series, a rational zero and a
    # cancelled Q(zeta_6) zero: each row lies in the field of its own
    # products (a cancelled zero's order included), so the rows lie over Q,
    # Q(zeta_3), Q(zeta_4), Q(zeta_6) and Q(zeta_12)
    z3, z4, z6 = Cyclotomic.zeta(3), Cyclotomic.zeta(4), Cyclotomic.zeta(6)
    A = {
        -1: {(-1, 0): QSeries.constant(1, 6), (0, -1): QSeries.constant(1, 6)},
        1: {(1, 0): QSeries(6, [Fraction(1, 2), 3, -1]), (0, 1): QSeries(5, [z3, 0, 2, z3 * z3])},
        3: {
            (2, 1): QSeries.zero(6),
            (1, 2): QSeries(6, [z6 - z6, 0, 0]),
            (3, 0): QSeries(4, [1, Fraction(-2, 3), 5, 7]),
            (0, 3): QSeries(6, [0, z4, 1]),
        },
    }
    B = {
        -1: {(0, 0): QSeries.constant(1, 6), (-1, -1): QSeries.constant(-1, 6)},
        1: {(0, 0): QSeries(6, [2, 0, 1]), (1, 1): QSeries(6, [z3, Fraction(1, 3)])},
        3: {(1, 1): QSeries(3, [0, 1, z6]), (0, 0): QSeries.zero(6)},
    }
    got, want = trigen_mul(A, B, 8), _oracle_trigen_mul(A, B, 8)
    _assert_same_trigen(got, want)
    assert {q.order for row in got.weights.values() for q in row.values()} == {1, 3, 4, 6, 12}
    assert got.principal


def _mirror_pairs(row: dict) -> list:
    return [((a, b), (b, a)) for a, b in row if a < b and (b, a) in row]


def test_trigen_mul_keeps_the_rows_of_an_asymmetric_jet():
    # entry (1, 2) != (2, 1) and (1, 0) != (0, 1): no mirror row has its
    # representative's products, so every row is its own sum
    A = {
        1: {(1, 0): QSeries(6, [1, 2, 0, 1]), (0, 1): QSeries(6, [1, 0, 3])},
        3: {
            (3, 0): QSeries(6, [0, 1, 1]),
            (2, 1): QSeries(6, [Fraction(1, 2), 0, 1]),
            (1, 2): QSeries(6, [0, 5, Fraction(-1, 3)]),
            (0, 3): QSeries(6, [0, 1, 2]),
        },
    }
    B = {
        1: {(1, 1): QSeries(6, [1, -1]), (0, 0): QSeries(6, [0, 2, 1])},
        3: {(0, 0): QSeries(6, [3, 0, 1]), (1, 1): QSeries(6, [0, 0, 1, 4])},
    }
    got, want = trigen_mul(A, B, 8), _oracle_trigen_mul(A, B, 8)
    _assert_same_trigen(got, want)
    pairs = [(row, p) for row in got.weights.values() for p in _mirror_pairs(row)]
    assert len(pairs) >= 6
    for row, (key, mirror) in pairs:
        assert row[key] is not row[mirror], key
    assert any(row[key] != row[mirror] for row, (key, mirror) in pairs)


@pytest.mark.parametrize("N", [1, 13, 41])
def test_trigen_mul_shares_the_mirror_rows_of_a_fourier_jet(N):
    # kron_fourier's entry (s, r) is its entry (r, s), so each mirror row is
    # its representative, the same object, and equals the oracle's own row
    for chi in _characters_up_to_conjugation(N)[:3]:
        A = bijet_substitute(kron_fourier(chi, 12, 8), "XT_YT")
        B = bijet_substitute(kron_fourier(chi.conjugate(), 12, 8), "T_-XYT")
        got, want = trigen_mul(A, B, 8), _oracle_trigen_mul(A, B, 8)
        _assert_same_trigen(got, want)
        pairs = [(row, p) for row in got.weights.values() for p in _mirror_pairs(row)]
        assert pairs
        for row, (key, mirror) in pairs:
            assert row[key] is row[mirror], (chi, key)


def test_slice_orbits():
    f, g = QSeries(4, [1, 2]), QSeries(4, [0, 1])
    terms = [(1, f, g)]
    rows = {
        (6, 1): terms,
        (1, 6): terms,  # the same object: joins (6, 1)
        (2, 1): [f],
        (1, 2): [f],  # the same operand: joins (2, 1)
        (3, 0): [QSeries(4, [1, 2])],
        (0, 3): [f],  # an equal operand: joins (3, 0)
        (4, 1): [f],
        (1, 4): [g],  # a different value: its own orbit
        (2, 2): [g],  # on the diagonal: its own orbit
        (0, 5): [g],  # its mirror comes later: (5, 0) joins it
        (5, 0): [g],
    }
    assert slice_orbits(rows) == {
        (6, 1): (6, 1),
        (1, 6): (6, 1),
        (2, 1): (2, 1),
        (1, 2): (2, 1),
        (3, 0): (3, 0),
        (0, 3): (3, 0),
        (4, 1): (4, 1),
        (1, 4): (1, 4),
        (2, 2): (2, 2),
        (0, 5): (0, 5),
        (5, 0): (0, 5),
    }


def test_unsupported_substitution():
    with pytest.raises(ValueError):
        bijet_substitute(_simple_jet(), "YT_XT")


def _schoolbook_mul(xs, ys) -> list:
    """Cauchy product of two coefficient sequences of equal length."""
    prec = len(xs)
    out = [0] * prec
    for i in range(prec):
        ai = xs[i]
        if ai == 0:
            continue
        for j in range(prec - i):
            bj = ys[j]
            if bj != 0:
                out[i + j] = out[i + j] + ai * bj
    return out


_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=7)


def _scalars(m):
    phi = euler_phi(m)
    cyclotomic = st.lists(_RATIONALS, min_size=phi, max_size=phi).map(
        lambda cs: Cyclotomic(m, cs)
    )
    return st.one_of(st.just(0), st.integers(-4, 4), _RATIONALS, cyclotomic)


_SCALARS = {m: _scalars(m) for m in (1, 3, 4, 5, 8, 12)}  # phi(m) up to 4


@st.composite
def _factor_pair(draw):
    """Two coefficient lists of lengths 1..12, over Q(zeta_m) or, about a
    third of the time, over two different orders m1 != m2; sometimes with a
    forced cancellation: (x, -x) against (c, c) makes q^1 a sum that is zero."""
    m1 = draw(st.sampled_from(sorted(_SCALARS)))
    m2 = m1
    if draw(st.integers(0, 2)) == 0:
        m2 = draw(st.sampled_from(sorted(set(_SCALARS) - {m1})))
    xs = draw(st.lists(_SCALARS[m1], min_size=1, max_size=12))
    ys = draw(st.lists(_SCALARS[m2], min_size=1, max_size=12))
    if draw(st.booleans()):
        x, c = draw(_SCALARS[m1]), draw(_SCALARS[m2])
        xs, ys = [x, -x] + xs[2:], [c, c] + ys[2:]
    return xs, ys


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_factor_pair())
def test_mul_matches_polynomial_oracle(pair):
    xs, ys = pair
    pa, pb = len(xs), len(ys)
    a = QSeries(pa, xs)
    b = QSeries(pb, ys)
    prod = qs_mul(a, b)
    prec = min(pa, pb)
    assert prod.prec == prec
    oracle = _schoolbook_mul(a.coeffs[:prec], b.coeffs[:prec])
    order = _field_order(a, b)
    assert prod.order == order
    for n in range(prec):
        got, want = prod.coeff(n), oracle[n]
        assert got == want
        assert got == sum(xs[i] * ys[n - i] for i in range(n + 1))
        _assert_reads_as(got, want, order)
    _assert_same_series(prod, _oracle_mul(a, b), order)


def _field_order(*operands) -> int:
    """The order m of the field Q(zeta_m) that a series made from these
    operands lies in: the lcm of the orders of the operand series and of
    every Cyclotomic scale."""
    return lcm(*(op.order for op in operands if isinstance(op, (QSeries, Cyclotomic))))


def _typed(value, order: int):
    """value as a coefficient of a series over Q(zeta_order) reads: a
    Cyclotomic of this order when order > 1 and value != 0, else an int when
    integral and a Fraction when not."""
    if order > 1 and value != 0:
        return value.lift(order) if isinstance(value, Cyclotomic) else Cyclotomic.from_rational(value, order)
    x = value.rational_value() if isinstance(value, Cyclotomic) else Fraction(value)
    return x.numerator if x.denominator == 1 else x


def _assert_reads_as(got, value, order: int):
    """got is value, read by the type rule of a series over Q(zeta_order)."""
    want = _typed(value, order)
    assert type(got) is type(want)
    assert scalar_to_json(got) == scalar_to_json(want)


def _sum_order(terms) -> int:
    """_field_order of qs_sum's operands: a term scaled by 0 contributes nothing."""
    return _field_order(*(x for c, a, b in terms if c is None or c != 0 for x in (c, a, b) if x is not None))


def _oracle_mul(a: QSeries, b: QSeries) -> QSeries:
    """qs_mul's values, by schoolbook."""
    prec = min(a.prec, b.prec)
    return QSeries(prec, _schoolbook_mul(a.coeffs[:prec], b.coeffs[:prec]))


# Coefficient-tuple oracles: the contracts of qs_add, qs_scale, theta_op,
# QSeries.truncate and qs_rescale, one coefficient at a time.

def _oracle_add(a: QSeries, b: QSeries) -> QSeries:
    prec = min(a.prec, b.prec)
    return QSeries(prec, [a.coeffs[n] + b.coeffs[n] for n in range(prec)])


def _oracle_scale(a: QSeries, c) -> QSeries:
    if c == 0:
        return QSeries.zero(a.prec)
    return QSeries(a.prec, [c * x if x != 0 else 0 for x in a.coeffs])


def _oracle_theta(f: QSeries, m: int) -> QSeries:
    return QSeries(f.prec, [f.coeffs[n] * n**m for n in range(f.prec)])


def _oracle_truncate(f: QSeries, prec: int) -> QSeries:
    return QSeries(prec, f.coeffs[:prec])


def _oracle_rescale(f: QSeries, d: int, prec: int) -> QSeries:
    out = [0] * prec
    for n in range(f.prec):
        if n * d >= prec:
            break
        out[n * d] = f.coeffs[n]
    return QSeries(prec, out)


def _oracle_sum(terms) -> QSeries:
    """The sequential composition that qs_sum fuses: c a b or c a (the term
    as it stands when c is None), summed one term at a time."""
    acc = None
    for c, a, b in terms:
        term = a if b is None else _oracle_mul(a, b)
        if c is not None:
            term = _oracle_scale(term, c)
        acc = term if acc is None else _oracle_add(acc, term)
    return acc


def _assert_same_series(got: QSeries, want: QSeries, order: int):
    """got equals the oracle's want coefficient by coefficient, lies in
    Q(zeta_order), order the lcm of its operands' orders (_field_order), and
    reads each coefficient by that field's type rule (_typed)."""
    assert got.prec == want.prec
    assert got.order == order
    for x, y in zip(got.coeffs, want.coeffs):
        assert x == y
        _assert_reads_as(x, y, order)
    assert got.is_zero() == want.is_zero()
    assert got == want
    # equality of two slot forms, as qs_sum leaves them
    assert qs_sum([(1, want, None)]) == got
    assert got.is_zero() or qs_sum([(2, want, None)]) != got


@st.composite
def _series(draw):
    """1-8 coefficients over Q(zeta_m) or, sometimes, over two orders; about
    half the time one coefficient is a cancelled Cyclotomic zero x - x."""
    orders = sorted(_SCALARS)
    ms = draw(st.lists(st.sampled_from(orders), min_size=1, max_size=2, unique=True))
    if draw(st.integers(0, 2)):
        ms = ms[:1]
    coeffs = draw(st.lists(st.sampled_from(ms).flatmap(lambda m: _SCALARS[m]), min_size=1, max_size=8))
    if draw(st.booleans()):
        x = Cyclotomic.zeta(draw(st.sampled_from(orders[1:])))
        coeffs[draw(st.integers(0, len(coeffs) - 1))] = x - x
    return QSeries(len(coeffs), coeffs)


@st.composite
def _terms(draw):
    """1-4 product or linear terms over mixed orders and precisions; the scale
    is 1, 0, an int, a Fraction or a Cyclotomic.  Sometimes a term is
    followed by its negation (a forced cancellation), and sometimes that pair
    is the whole sum (an all-zero result)."""
    scales = st.one_of(st.just(1), st.sampled_from(sorted(_SCALARS)).flatmap(lambda m: _SCALARS[m]))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        b = draw(st.one_of(st.none(), _series()))
        terms.append((draw(scales), draw(_series()), b))
    shape = draw(st.integers(0, 3))
    if shape:
        c, a, b = terms[0]
        c = 1 if c == 0 else c
        pair = [(c, a, b), (-c, a, b)]
        terms = pair if shape == 1 else terms + pair
    return terms


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_terms())
def test_sum_matches_the_sequential_oracle(terms):
    _assert_same_series(qs_sum(terms), _oracle_sum(terms), _sum_order(terms))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_series(), st.data())
def test_slot_maps_match_the_tuple_oracles(f, data):
    order = _field_order(f)
    for m in range(4):
        _assert_same_series(theta_op(f, m), _oracle_theta(f, m), order)
    prec = data.draw(st.integers(1, f.prec))
    _assert_same_series(f.truncate(prec), _oracle_truncate(f, prec), order)
    for d in range(1, 4):
        _assert_same_series(qs_rescale(f, d), _oracle_rescale(f, d, f.prec), order)
        wide = data.draw(st.integers(1, f.prec * d))
        _assert_same_series(qs_rescale(f, d, wide), _oracle_rescale(f, d, wide), order)
    _assert_same_series(qs_scale(f, 0), _oracle_scale(f, 0), _sum_order([(0, f, None)]))
    # the maps compose on slot forms that no coefficient list backs
    g = qs_rescale(theta_op(f, 2).truncate(prec), 2)
    _assert_same_series(g, _oracle_rescale(_oracle_truncate(_oracle_theta(f, 2), prec), 2, prec), order)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from([1, 3, 4, 6]).flatmap(lambda m: st.lists(_scalars(m), min_size=1, max_size=16)),
       st.integers(0, 12))
def test_theta_op_matches_the_tuple_oracle(coeffs, m):
    # theta_op's cached rows of n^m, over Q and Q(zeta_3), Q(zeta_4), Q(zeta_6)
    f = QSeries(len(coeffs), coeffs)
    _assert_same_series(theta_op(f, m), _oracle_theta(f, m), _field_order(f))
    g = f.truncate(max(1, f.prec - 1))
    _assert_same_series(theta_op(g, m), _oracle_theta(g, m), _field_order(f))


def test_equality_does_not_assume_a_least_denominator():
    # a slice and a theta image keep their parent's denominator 2
    assert QSeries(2, [1, Fraction(1, 2)]).truncate(1) == QSeries(1, [1])
    assert theta_op(QSeries(2, [Fraction(1, 2)]), 1) == QSeries.zero(2)


def test_sum_reuses_slot_forms_and_reads_coefficients_lazily():
    a = QSeries(4, [Fraction(1, 2), 3, 0, Fraction(-5, 6)])
    b = QSeries(4, [2, Fraction(1, 3)])
    # a coefficient list is converted to slots when built: one denominator
    assert (a.order, a.den, a.ints) == (1, 6, [3, 18, 0, -5])
    assert (b.den, b.ints) == (3, [6, 1, 0, 0])
    out = qs_sum([(Fraction(3, 4), a, b), (-1, a, None)])
    assert out._coeffs is None and out.coeff(1) == Fraction(3, 4) * (6 + Fraction(1, 6)) - 3
    _assert_same_series(out, _oracle_sum([(Fraction(3, 4), a, b), (-1, a, None)]), 1)
    # a cancelled sum is zero without building its coefficients
    zero = qs_sum([(1, a, b), (-1, a, b)])
    assert zero.is_zero() and zero._coeffs is None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_terms())
def test_sum_shares_no_slots_and_leaves_its_operands(terms):
    # an operand at the sum's order and precision is read in place
    operands = [x for _, a, b in terms for x in (a, b) if x is not None]
    before = [(x.den, list(x.ints)) for x in operands]
    out = qs_sum(terms)
    assert all(out.ints is not x.ints for x in operands)
    assert [(x.den, x.ints) for x in operands] == before


@st.composite
def _slice_rows(draw):
    """{(a, b): terms} for orbit_sums, on keys (i, j) with i <= j: _terms
    draws, and lone terms over a pool of operands with the scale 1, 2 or the
    Cyclotomic 1 of order 3.  The mirror (j, i) of a key may hold the same
    list, an equal copy of it, or the list with one more nonzero linear term
    (an asymmetric mirror); it comes before or after its key."""
    pool = draw(st.lists(_series(), min_size=1, max_size=3))
    operand = st.sampled_from(pool)
    lone = st.tuples(st.sampled_from([1, 2, Cyclotomic(3, [1, 0])]), operand, st.none()) | st.tuples(
        st.just(1), operand, operand)
    items = []
    for i in range(draw(st.integers(0, 5))):
        key = (i, i + draw(st.integers(0, 2)))
        terms = draw(_terms() | lone.map(lambda t: [t]))
        pair = [(key, terms)]
        mirror = draw(st.sampled_from(["none", "same", "copy", "extra"]))
        if key[0] != key[1] and mirror != "none":
            if mirror == "extra":
                terms = terms + [(1, draw(_series().filter(lambda f: not f.is_zero())), None)]
            pair.append((key[::-1], terms if mirror == "same" else list(terms)))
        items += pair[::-1] if draw(st.booleans()) else pair
    return dict(items)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_slice_rows())
def test_orbit_sums_match_the_per_key_sums(rows):
    operands = [x for terms in rows.values() for _, a, b in terms for x in (a, b) if x is not None]
    before = [(x.den, list(x.ints)) for x in operands]
    got = orbit_sums(rows)
    assert list(got) == [key for key in rows if key in got]
    for key, terms in rows.items():
        want = qs_sum(terms)
        if want.is_zero():
            assert key not in got
            continue
        out = got[key]
        assert out == want and (out.prec, out.order) == (want.prec, want.order)
        c, f, g = terms[0]
        if len(terms) == 1 and g is None and not isinstance(c, Cyclotomic) and c == 1:
            assert out is f  # a lone linear term with scale 1 is its series
        else:
            assert all(out.ints is not x.ints for x in operands)
        mirror = key[::-1]
        if mirror != key and mirror in got:
            # a mirror is its key's series exactly when their lists are equal
            assert (got[mirror] is out) == (rows[mirror] == terms)
    assert [(x.den, x.ints) for x in operands] == before


def test_orbit_sums_of_no_rows():
    assert orbit_sums({}) == {}


@st.composite
def _rows(draw):
    """0-5 rows for qs_sums: _terms draws, rows of products and linear terms
    over one shared pool of operand objects, and linear-only rows."""
    pool = draw(st.lists(_series(), min_size=1, max_size=4))
    scales = st.one_of(st.just(1), st.sampled_from(sorted(_SCALARS)).flatmap(lambda m: _SCALARS[m]))
    operand = st.sampled_from(pool)
    pooled = st.lists(st.tuples(scales, operand, st.one_of(st.none(), operand)), min_size=1, max_size=4)
    linear = st.lists(st.tuples(scales, operand, st.none()), min_size=1, max_size=3)
    return draw(st.lists(st.one_of(_terms(), pooled, linear), max_size=5))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_rows())
def test_sums_match_the_one_row_calls(rows):
    operands = [x for terms in rows for _, a, b in terms for x in (a, b) if x is not None]
    before = [(x.den, list(x.ints)) for x in operands]
    got = qs_sums(rows)
    assert len(got) == len(rows)
    for out, terms in zip(got, rows):
        want = qs_sum(terms)
        assert (out.to_json(), out.order, out.den) == (want.to_json(), want.order, want.den)
        assert out.ints == want.ints
        assert all(out.ints is not x.ints for x in operands)
    assert [(x.den, x.ints) for x in operands] == before


def test_sums_of_no_rows():
    assert qs_sums([]) == []


def test_a_single_linear_term_is_a_new_series():
    # reduced slots that a scale of 1 leaves as they are, over Q and Q(zeta_6)
    zeta6 = Cyclotomic.zeta(6)
    for a in (QSeries(4, [1, 2, 0, 5]), QSeries(3, [zeta6, 1, 0])):
        before = list(a.ints)
        for scale in (1, Cyclotomic(a.order, [1] + [0] * (euler_phi(a.order) - 1)), zeta6):
            out = qs_sum([(scale, a, None)])
            assert out.ints is not a.ints and a.ints == before
            assert out == _oracle_scale(a, scale)
        both = qs_sum([(1, a, None), (1, a, None)])
        assert both.ints is not a.ints and a.ints == before and both == qs_scale(a, 2)


def _order_1_or_6(data, prec):
    m = data.draw(st.sampled_from((1, 6)))
    return QSeries(prec, data.draw(st.lists(_scalars(m), min_size=prec, max_size=prec)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 8), st.integers(0, 4))
def test_leibniz_rule(data, prec, s):
    # f theta^s g = sum_j (-1)^j C(s, j) theta^(s-j) (theta^j f g), the rule
    # behind kronecker.conv_g, in the same slot form
    f, g = _order_1_or_6(data, prec), _order_1_or_6(data, prec)
    lhs = qs_mul(f, theta_op(g, s))
    rhs = qs_sum([
        ((-1) ** j * comb(s, j), theta_op(qs_mul(theta_op(f, j), g), s - j), None)
        for j in range(s + 1)
    ])
    assert lhs.to_json() == rhs.to_json()
    assert lhs.order == rhs.order == lcm(f.order, g.order)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_series(), _series(), st.integers(0, 3), st.integers(0, 63))
def test_equality_agrees_with_the_difference(f, g, m, i):
    # one order and one den compare the slot lists, one order and two dens
    # cross-multiplied slots, mixed orders a qs_sum; theta_op and truncate
    # keep a denominator that need not be reduced
    prec = min(f.prec, g.prec)
    f, g = f.truncate(prec), g.truncate(prec)
    tf = theta_op(f, m)
    bumped = list(tf.ints)  # tf's slots, one of them moved, at tf's den
    bumped[i % len(bumped)] += 1
    pairs = [
        (f, g),
        (f, qs_sum([(1, f, None)])),
        (tf, qs_sum([(1, tf, None)])),
        (tf, theta_op(qs_sum([(1, f, None)]), m)),
        (f, qs_scale(f, 2)),
        (f, qs_add(f, QSeries(prec, [0] * (prec - 1) + [1]))),
        (tf, g),
        (tf, QSeries._of(prec, tf.order, tf.den, list(tf.ints))),
        (tf, QSeries._of(prec, tf.order, tf.den, bumped)),
    ]
    for a, b in pairs:
        assert (a == b) == qs_sum([(1, a, None), (-1, b, None)]).is_zero()
        assert (a == b) == (b == a)
    assert pairs[1][0] == pairs[1][1] and pairs[2][0] == pairs[2][1] and pairs[3][0] == pairs[3][1]
    assert pairs[5][0] != pairs[5][1]
    assert pairs[7][0] == pairs[7][1] and pairs[8][0] != pairs[8][1]


def test_equality_at_a_shared_denominator():
    # one order and one den: the slot lists decide, equal or not
    half = QSeries(3, [Fraction(1, 2), 1, 0])
    assert half == QSeries(3, [Fraction(1, 2), 1, 0])
    assert half != QSeries(3, [Fraction(1, 2), 0, Fraction(3, 2)])
    z = Cyclotomic.zeta(3)
    third = QSeries(2, [z / 3, 1])
    assert third.den == QSeries(2, [z / 3, Fraction(2, 3)]).den == 3
    assert third == QSeries(2, [z / 3, 1]) and third != QSeries(2, [z / 3, Fraction(2, 3)])
    # a theta image keeps its parent's den 2 with even slots; its reduced
    # equal has den 1, so the two are cross-multiplied
    t = theta_op(QSeries(3, [Fraction(1, 2), 2, 4]), 1)
    reduced = QSeries(3, [0, 2, 8])
    assert (t.den, reduced.den) == (2, 1)
    assert t == reduced and reduced == t
    assert t != QSeries(3, [0, 2, 9]) and QSeries(3, [0, 2, 9]) != t
    # two orders: a rational series read at order 3 against itself over Q
    lifted = QSeries(2, [Cyclotomic.from_rational(Fraction(1, 2), 3), 1])
    assert lifted.order == 3 and lifted == QSeries(2, [Fraction(1, 2), 1])
    assert lifted != QSeries(2, [Fraction(1, 2), 2])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_series(), st.sampled_from(sorted(_SCALARS)).flatmap(lambda m: _SCALARS[m]), st.integers(0, 7))
def test_proportional_matches_rank_one(g, t, n):
    from kronlab.linalg import rank

    if g.is_zero():
        return
    f = qs_scale(g, t)
    assert qs_proportional(f, g)
    bumped = QSeries(f.prec, [c + 1 if i == n % f.prec else c for i, c in enumerate(f.coeffs)])
    assert qs_proportional(bumped, g) == (rank([list(bumped.coeffs), list(g.coeffs)]) == 1)


def test_mul_mixed_orders_lift_to_the_lcm():
    z3, z4 = Cyclotomic.zeta(3), Cyclotomic.zeta(4)
    a = QSeries(3, [z3, 1])
    b = QSeries(3, [z4, Fraction(1, 2)])
    prod = qs_mul(a, b)
    assert prod.order == 12 and [c.order for c in prod.coeffs] == [12, 12, 12]
    assert prod.coeffs[0] == Cyclotomic.zeta(12, 7)
    assert prod.coeffs[1] == z3 * Fraction(1, 2) + z4
    # 1 * 1/2: a rational value, read as an element of the product's field
    assert scalar_to_json(prod.coeffs[2]) == scalar_to_json(Cyclotomic.from_rational(Fraction(1, 2), 12))
    assert prod.coeffs == tuple(_schoolbook_mul(a.coeffs, b.coeffs))


def test_a_mixed_order_list_lies_in_one_field():
    z3 = Cyclotomic.zeta(3)
    f = QSeries(3, [z3, Cyclotomic.zero(4), 1])
    assert f.order == 12
    # nonzero coefficients read at order 12, the zero one as the int 0
    assert [(c.order, c) for c in (f.coeffs[0], f.coeffs[2])] == [(12, z3), (12, 1)]
    assert f.coeffs[1] == 0 and type(f.coeffs[1]) is int
    assert [f.coeff(n).order for n in (0, 2)] == [12, 12]


def test_mul_inexact_operand_is_refused():
    for inexact in (0.5, 0.5 + 0j):
        # refused when the operand is built, before any product is taken
        with pytest.raises(RingMismatchError):
            QSeries.constant(inexact, 3)
        with pytest.raises(RingMismatchError):
            qs_mul(QSeries(3, [inexact, 1.0]), QSeries(3, [Fraction(1, 2), 2]))
        with pytest.raises(RingMismatchError):
            qs_mul(QSeries(3, [Cyclotomic.zeta(5)]), QSeries(3, [inexact]))


def test_mul_cancelled_cyclotomic_zero_reads_as_int_zero():
    z = Cyclotomic.zeta(6)
    prod = qs_mul(QSeries(4, [z, -z]), QSeries(4, [1, 1]))
    assert prod.order == 6
    assert prod.to_json()["coeffs"] == [
        {"order": 6, "coeffs": ["0/1", "1/1"]},
        "0/1",  # z - z: a cancelled product
        {"order": 6, "coeffs": ["0/1", "-1/1"]},
        "0/1",  # no pair contributes
    ]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(1, 3))
def test_precision_contract_fuzz(prec, d):
    f = QSeries(prec, list(range(1, prec + 1)))
    g = qs_rescale(f, d)
    assert g.prec == prec
    with pytest.raises(PrecisionError):
        g.coeff(prec)
    with pytest.raises(PrecisionError):
        qs_mul(f, QSeries(prec, [1])).coeff(prec)


def test_substitution_specializes_to_direct_product():
    # collapsing X = Y = 1 and T = u = v must reproduce the jet product values
    jet = _simple_jet()
    A = bijet_substitute(jet, "XT_YT")
    total_a = {}
    for t, rows in A.items():
        for _, series in rows.items():
            total_a[t] = qs_add(total_a.get(t, QSeries.zero(series.prec)), series)
    # sum over monomials at X=Y=1 equals the jet's own T-layer sums
    direct = {}
    for (r, s), series in jet.entries.items():
        t = r + s
        direct[t] = qs_add(direct.get(t, QSeries.zero(series.prec)), series)
    direct[-1] = QSeries.constant(2 * jet.polar, jet.prec)
    for t in direct:
        assert total_a[t] == direct[t]


def test_qseries_json_shape():
    q = QSeries(2, [Fraction(1, 2), 3])
    assert q.to_json() == {"prec": 2, "coeffs": ["1/2", "3/1"]}
