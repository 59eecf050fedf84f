"""qs_sums' product kernel against the stride kernel it replaced.

Products are taken by zeta-components: each operand's phi(m) components are
packed, multiplied per zeta-degree, folded mod Phi_m on the packed ints and
unpacked phi(m) prec slots a row.  tests/stride_kernel.py keeps the old
kernel (one stride-(2 phi(m) - 1) multiply, unpacked and then reduced), and
every row here must give the same order, denominator and slots.  The orders
run up to 105, where phi = 48 and Phi_105 has a coefficient -2.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kronlab import arith, series
from kronlab.arith import Cyclotomic, cyclotomic_poly
from kronlab.ntheory import divisors, euler_phi
from kronlab.series import QSeries, qs_sum, qs_sums
from stride_kernel import stride_sum_row

ORDERS = (1, 3, 4, 5, 8, 12, 20, 50, 105)
BIG = 2**200


def _assert_rows(got: list, rows: list):
    for out, terms in zip(got, rows, strict=True):
        assert (out.order, out.den, out.ints) == stride_sum_row(terms)


def test_order_105_has_a_coefficient_minus_2():
    assert euler_phi(105) == 48 and min(cyclotomic_poly(105)) == -2


@st.composite
def _operand(draw, m: int):
    """A series at an order dividing m: 1-6 coefficients (at most 3 when
    phi(m) > 20), signed numerators up to 2^200 over a denominator up to 2^40."""
    order = draw(st.sampled_from(divisors(m)))
    prec = draw(st.integers(1, 3 if euler_phi(m) > 20 else 6))
    num = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
    ints = draw(st.lists(num, min_size=prec * euler_phi(order), max_size=prec * euler_phi(order)))
    return QSeries._of(prec, order, draw(st.integers(1, 2**40)), ints)


def _scale(m: int):
    cyclo = st.sampled_from(divisors(m)).flatmap(lambda d: st.builds(
        Cyclotomic, st.just(d), st.lists(st.fractions(max_denominator=50).map(lambda x: x * 7**30),
                                         min_size=euler_phi(d), max_size=euler_phi(d))))
    return st.one_of(st.just(1), st.integers(-BIG, BIG), st.fractions(max_denominator=2**30), cyclo)


@st.composite
def _rows(draw):
    """Rows over one order m of ORDERS: 1-6 product terms on a pool of
    operands (mixed orders dividing m and mixed precisions) and 0-2 linear
    terms; the first row may be followed by its negation, a row that cancels."""
    m = draw(st.sampled_from(ORDERS))
    pool = draw(st.lists(_operand(m), min_size=1, max_size=4))
    operand = st.sampled_from(pool)
    product = st.tuples(_scale(m), operand, operand)
    linear = st.tuples(_scale(m), operand, st.none())
    rows = draw(st.lists(st.builds(lambda p, l: p + l, st.lists(product, min_size=1, max_size=6),
                                   st.lists(linear, max_size=2)), min_size=1, max_size=3))
    if draw(st.booleans()):
        rows.append(rows[0] + [(-c, a, b) for c, a, b in rows[0]])
    return rows


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_rows())
def test_rows_match_the_stride_kernel(rows):
    got = qs_sums(rows)
    _assert_rows(got, rows)
    _assert_rows([qs_sum(terms) for terms in rows], rows)


@pytest.mark.parametrize("m", ORDERS)
def test_a_cancelling_row_is_zero(m):
    phi = euler_phi(m)
    f = QSeries._of(3, m, 5, [(-1) ** n * (BIG - n) for n in range(3 * phi)])
    g = QSeries._of(2, m, 3, [BIG // (n + 2) for n in range(2 * phi)])
    terms = [(7, f, g), (Fraction(2, 3), g, f), (-7, g, f), (Fraction(-2, 3), f, g)]
    out = qs_sum(terms)
    assert out.is_zero() and (out.order, out.den, out.ints) == stride_sum_row(terms)


def _extreme_row(m: int) -> list:
    """Seven equal product terms whose folded slots come close to the slot
    width: every slot of a and b is +-X, X = 2^k - 1, the signs of component
    i of a and of component l of b chosen (alternating sign updates) to line
    up the entries x^(i+l) mod Phi_m at one slot j of the result, prec phi(m)
    just below a power of 2, and the bit sizes chosen so that the width
    without the fold's bits would be whole bytes."""
    phi = euler_phi(m)
    table = [tuple(int(j == e) for j in range(phi)) for e in range(phi)]
    table += arith._power_table(m)[: phi - 1]

    def line_up(j):
        sig, tau = [1] * phi, [1] * phi
        for _ in range(4):
            sig = [1 if sum(tau[l] * table[i + l][j] for l in range(phi)) >= 0 else -1 for i in range(phi)]
            tau = [1 if sum(sig[i] * table[i + l][j] for i in range(phi)) >= 0 else -1 for l in range(phi)]
        return abs(sum(sig[i] * tau[l] * table[i + l][j] for i in range(phi) for l in range(phi))), sig, tau

    _, sig, tau = max((line_up(j) for j in range(phi)), key=lambda t: t[0])
    prec = max(1, ((1 << (phi * 6).bit_length()) - 1) // phi)
    k = 64
    base = 2 * k + (prec * phi).bit_length() + (7).bit_length() + 1
    bs = 8 + (-base) % 8  # s = 2^bs - 1, bs in 8..15
    x = (1 << k) - 1
    a = QSeries._of(prec, m, 1, [sig[n % phi] * x for n in range(prec * phi)])
    b = QSeries._of(prec, m, 1, [tau[n % phi] * x for n in range(prec * phi)])
    return [((1 << bs) - 1, a, b)] * 7


@pytest.mark.parametrize("m", ORDERS)
def test_the_slot_width_holds_the_folded_sums(m):
    terms = _extreme_row(m)
    _assert_rows([qs_sum(terms)], [terms])
    if m in (12, 20, 50, 105):
        # the row's largest slot needs the fold's bits: it lies beyond the
        # whole bytes that the unfolded bound alone would give
        s, a, b = terms[0]
        bits = s.bit_length() + 2 * (a.ints[0].bit_length()) + (a.prec * euler_phi(m)).bit_length()
        bits += len(terms).bit_length() + 1
        assert max(map(abs, stride_sum_row(terms)[2])) >= 1 << (8 * ((bits + 7) // 8) - 1)


@pytest.mark.parametrize("m", ORDERS)
def test_a_product_row_unpacks_phi_prec_slots(m, monkeypatch):
    # operands at the row's order and int or Fraction scales: no lift and no
    # Cyclotomic scale, so nothing may reduce mod Phi_m at all
    unpacked, reduced = [], []
    inner = series._unpack

    def unpack(packed, wb, n):
        unpacked.append(n)
        return inner(packed, wb, n)

    def refuse(*args):
        reduced.append(args)
        raise AssertionError("the product stage reduced a row")

    phi, prec = euler_phi(m), 4
    f = QSeries._of(prec, m, 1, [n - 2 * phi for n in range(prec * phi)])
    g = QSeries._of(prec + 2, m, 3, [(-1) ** n * 10**40 for n in range((prec + 2) * phi)])
    terms = [(3, f, g), (Fraction(-1, 2), g, g), (1, f, None)]
    with monkeypatch.context() as patch:
        patch.setattr(series, "_unpack", unpack)
        patch.setattr(series, "_reduce_rows", refuse)
        patch.setattr(arith, "_reduce_rows", refuse)
        out = qs_sum(terms)
    assert out.prec == prec and not reduced
    assert unpacked == [prec] * phi  # each component once: phi prec slots in all
    assert (out.order, out.den, out.ints) == stride_sum_row(terms)
