import cmath
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from kronlab.arith import (
    Cyclotomic,
    _power_table,
    _reduce_rows,
    _spread,
    bernoulli_number,
    conj_slots,
    cyclotomic_poly,
    embed_complex,
    lift_slots,
    mul_slots,
    rational_to_str,
)
from kronlab.ntheory import divisors, euler_phi


def bernoulli_oracle(n):
    # independent recurrence sum_{j<n} C(n+1, j) B_j = -(n+1) B_n
    table = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum(comb(m + 1, j) * table[j] for j in range(m))
        table.append(-acc / (m + 1))
    return table[n]


def test_bernoulli_examples():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == bernoulli_oracle(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanishing():
    assert all(bernoulli_number(2 * r + 1) == 0 for r in range(1, 15))


def test_cyclo_mul_examples():
    i = Cyclotomic.zeta(4)
    assert i * i == -1
    z5 = [Cyclotomic.zeta(5, e) for e in range(5)]
    assert z5[1] * z5[4] == 1
    gauss = z5[1] + z5[4] - z5[2] - z5[3]
    assert gauss * gauss == 5


def test_embed_examples():
    one = Cyclotomic.from_rational(1)
    assert embed_complex(one) == 1
    i = Cyclotomic.zeta(4)
    assert abs(embed_complex(i) - 1j) < 1e-15
    z5 = [Cyclotomic.zeta(5, e) for e in range(5)]
    gauss = z5[1] + z5[4] - z5[2] - z5[3]
    assert abs(embed_complex(gauss) - 5**0.5) < 1e-12


def test_mixed_order_lift_and_equality():
    # zeta_6 = -zeta_3^2, compared across orders
    z6 = Cyclotomic.zeta(6)
    z3 = Cyclotomic.zeta(3)
    assert z6 == -(z3 * z3)
    assert z6 + z3 != 0
    assert z6 * z3 == -1  # zeta_6^3


def test_inverse_and_division():
    z = Cyclotomic.zeta(7, 3) + 2
    assert z * z.inverse() == 1
    assert (1 / z) * z == 1


def test_rational_string_roundtrip():
    x = Fraction(-22, 7)
    assert Fraction(rational_to_str(x)) == x


small_rational = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def cyclotomics(draw, orders=(1, 3, 4, 5, 6, 8)):
    m = draw(st.sampled_from(orders))
    coeffs = draw(
        st.lists(small_rational, min_size=euler_phi(m), max_size=euler_phi(m))
    )
    return Cyclotomic(m, coeffs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_axioms_fuzz(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    assert a * b == b * a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cyclotomics(), cyclotomics())
def test_embed_is_ring_hom_fuzz(a, b):
    assert abs(embed_complex(a + b) - (embed_complex(a) + embed_complex(b))) < 1e-10
    assert abs(embed_complex(a * b) - embed_complex(a) * embed_complex(b)) < 1e-10


def test_json_shape():
    z = Cyclotomic.zeta(4)
    assert z.to_json() == {"order": 4, "coeffs": ["0/1", "1/1"]}


def _poly_xgcd(a: list[Fraction], b: list[Fraction]):
    # Extended Euclid in Q[x]; returns (g, s, t) with s*a + t*b = g.
    def strip(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def polymod(p, q):
        p = p[:]
        dq = len(q) - 1
        quo = [Fraction(0)] * max(0, len(p) - dq)
        while len(p) - 1 >= dq and strip(p):
            shift = len(p) - 1 - dq
            c = p[-1] / q[-1]
            quo[shift] = c
            for j, qj in enumerate(q):
                p[shift + j] -= c * qj
            strip(p)
        return quo, p

    r0, r1 = strip(a[:]), strip(b[:])
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]

    def sub_scaled(p, q, quo):
        out = p[:]
        for i, c in enumerate(quo):
            if c == 0:
                continue
            for j, qj in enumerate(q):
                idx = i + j
                while len(out) <= idx:
                    out.append(Fraction(0))
                out[idx] -= c * qj
        while out and out[-1] == 0:
            out.pop()
        return out

    while r1:
        quo, rem = polymod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, sub_scaled(s0, s1, quo)
        t0, t1 = t1, sub_scaled(t0, t1, quo)
    return r0, s0, t0


def _reduce_mod_phi(m: int, conv: list) -> list:
    """A polynomial in zeta_m (ascending coefficients) as its phi(m)
    power-basis slots, one coefficient at a time: the row oracle of
    _reduce_rows."""
    phi = euler_phi(m)
    out = list(conv[:phi]) + [0] * max(0, phi - len(conv))
    if len(conv) > phi:
        table = _power_table(m)
        for e in range(phi, len(conv)):
            c = conv[e]
            if c:
                for j, r in enumerate(table[e - phi]):
                    if r:
                        out[j] += c * r
    return out


def inverse_oracle(x: Cyclotomic) -> Cyclotomic:
    """x^(-1) by extended Euclid: s x + t Phi_m = g with g a nonzero constant."""
    Phi = [Fraction(c) for c in cyclotomic_poly(x.order)]
    g, s, _ = _poly_xgcd(list(x.coeffs), Phi)
    assert len(g) == 1
    inv = [c / g[0] for c in s]
    phi = euler_phi(x.order)
    inv += [Fraction(0)] * (2 * phi - len(inv))
    return Cyclotomic(x.order, _reduce_mod_phi(x.order, inv))


INVERSE_ORDERS = (1, 3, 4, 5, 7, 8, 12, 13)


@pytest.mark.parametrize("m", INVERSE_ORDERS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.data())
def test_inverse_matches_euclid_oracle_fuzz(m, data):
    x = data.draw(cyclotomics(orders=(m,)))
    assume(x)
    want = inverse_oracle(x)
    for got in (x.inverse(), Fraction(1) / x, 1 / x):
        assert (got.order, got.coeffs) == (want.order, want.coeffs)


@pytest.mark.parametrize("m", INVERSE_ORDERS)
def test_inverse_of_zero_raises(m):
    zero = Cyclotomic.zero(m)
    for divide in (Cyclotomic.inverse, lambda z: Fraction(1) / z, lambda z: 1 / z):
        with pytest.raises(ZeroDivisionError):
            divide(zero)


class FractionCyclotomic:
    """An element of Q(zeta_m) as a tuple of phi(m) Fractions in the power
    basis of Phi_m, with schoolbook arithmetic, reduction by long division
    and the inverse by extended Euclid: the oracle of Cyclotomic's integer
    rows."""

    def __init__(self, order, coeffs):
        self.order = order
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        assert len(self.coeffs) == euler_phi(order)

    @staticmethod
    def reduce(m, conv):
        Phi = cyclotomic_poly(m)  # monic
        phi = len(Phi) - 1
        conv = list(conv) + [Fraction(0)] * max(0, phi - len(conv))
        for e in range(len(conv) - 1, phi - 1, -1):
            c = conv[e]
            for j, pj in enumerate(Phi):
                conv[e - phi + j] -= c * pj
        return FractionCyclotomic(m, conv[:phi])

    def conjugate(self):
        """zeta -> zeta^(-1): c_j moves to exponent (m - j) mod m."""
        m = self.order
        conv = [Fraction(0)] * m
        for j, c in enumerate(self.coeffs):
            conv[-j % m] += c
        return FractionCyclotomic.reduce(m, conv)

    def lift(self, m):
        k = m // self.order
        conv = [Fraction(0)] * ((len(self.coeffs) - 1) * k + 1)
        for j, c in enumerate(self.coeffs):
            conv[j * k] = c
        return FractionCyclotomic.reduce(m, conv)

    def _pair(self, other):
        if not isinstance(other, FractionCyclotomic):
            other = FractionCyclotomic(self.order, [other] + [0] * (euler_phi(self.order) - 1))
        m = lcm(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return FractionCyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return FractionCyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b = self._pair(other)
        conv = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                conv[i + j] += x * y
        return FractionCyclotomic.reduce(a.order, conv)

    __rmul__ = __mul__

    def inverse(self):
        g, s, _ = _poly_xgcd(list(self.coeffs), [Fraction(c) for c in cyclotomic_poly(self.order)])
        return FractionCyclotomic.reduce(self.order, [c / g[0] for c in s])

    def __truediv__(self, other):
        if isinstance(other, FractionCyclotomic):
            return self * other.inverse()
        return self * (1 / Fraction(other))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def to_complex(self):
        out = 0j
        for j, c in enumerate(self.coeffs):
            if c:
                out += float(c) * cmath.exp(2j * cmath.pi * j / self.order)
        return out

    def to_json(self):
        return {"order": self.order, "coeffs": [rational_to_str(c) for c in self.coeffs]}


def assert_same(got, want):
    """got, a Cyclotomic, is want, a FractionCyclotomic: in lowest terms,
    equal slot by slot, with the same JSON and bit for bit the same complex."""
    assert isinstance(got, Cyclotomic)
    assert got.den > 0 and gcd(got.den, *got.nums) == 1
    assert (got.order, got.coeffs) == (want.order, want.coeffs)
    assert got.to_json() == want.to_json()
    z, w = got.to_complex(), want.to_complex()
    assert (z.real.hex(), z.imag.hex()) == (w.real.hex(), w.imag.hex())


ORACLE_ORDERS = (1, 3, 4, 5, 6, 8, 12, 20)


@st.composite
def cyclotomic_and_oracle(draw):
    """A Cyclotomic and its oracle; about half are built from an unreduced
    row, numerators and denominator sharing a factor."""
    m = draw(st.sampled_from(ORACLE_ORDERS))
    coeffs = draw(st.lists(small_rational, min_size=euler_phi(m), max_size=euler_phi(m)))
    g = draw(st.integers(1, 6))
    if g == 1:
        return Cyclotomic(m, coeffs), FractionCyclotomic(m, coeffs)
    den = lcm(*(c.denominator for c in coeffs)) * g
    return Cyclotomic._of(m, den, [int(c * den) for c in coeffs]), FractionCyclotomic(m, coeffs)


def test_unreduced_inputs_are_brought_to_lowest_terms():
    half = Cyclotomic(6, [Fraction(2, 4), 0])
    assert (half.den, half.nums) == (2, (1, 0))
    assert_same(half, FractionCyclotomic(6, [Fraction(1, 2), 0]))
    assert_same(Cyclotomic._of(6, 4, [2, 6]), FractionCyclotomic(6, [Fraction(1, 2), Fraction(3, 2)]))
    assert_same(Cyclotomic._of(5, 3, [0, 0, 0, 0]), FractionCyclotomic(5, [0, 0, 0, 0]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cyclotomic_and_oracle(), cyclotomic_and_oracle(), small_rational)
def test_integer_rows_match_the_fraction_oracle(x, y, r):
    (a, oa), (b, ob) = x, y
    assert_same(a, oa)
    assert_same(a + b, oa + ob)
    assert_same(a - b, oa - ob)
    assert_same(-a, -oa)
    assert_same(a * b, oa * ob)
    for got, want in ((a + r, oa + r), (r + a, r + oa), (a - r, oa - r), (r - a, r - oa),
                      (a * r, oa * r), (r * a, r * oa)):
        assert_same(got, want)
    if r:
        assert_same(a / r, oa / r)
    if b:
        assert_same(a / b, oa / ob)
    if a:
        assert_same(a.inverse(), oa.inverse())
        assert_same(r / a, r / oa)
    m = lcm(a.order, b.order)
    for order in (a.order, m, 2 * m):
        assert_same(a.lift(order), oa.lift(order))
    assert (a == b) == (oa == ob)
    assert (a == r) == (oa == r)
    assert a == a.lift(2 * a.order) and (a == 0) == (not oa)
    assert bool(a) == bool(oa)
    assert a.is_rational() == oa.is_rational()


# ---------------------------------------------------------------------------
# The column-wise kernels against row-by-row references

slot_ints = st.integers(-(10**12), 10**12)


@pytest.mark.parametrize("m", range(1, 61))
@settings(max_examples=4, deadline=None, derandomize=True)
@given(st.data())
def test_column_kernel_matches_the_row_oracle(m, data):
    # every width the kernel serves: phi(m) (a copy) through
    # max(2 phi(m) - 1, m), the product stride and the exponent-slot width
    phi = euler_phi(m)
    top = max(2 * phi - 1, m)
    nblocks = data.draw(st.integers(0, 3))
    pool = data.draw(st.lists(slot_ints, min_size=nblocks * top, max_size=nblocks * top))
    for width in range(phi, top + 1):
        ints = pool[: nblocks * width]
        want = [x for i in range(0, len(ints), width) for x in _reduce_mod_phi(m, ints[i : i + width])]
        assert _reduce_rows(m, ints, width) == want


@st.composite
def order_pair_and_rows(draw):
    """An order m <= 60, a divisor m0 of it and rows of phi(m0) slots."""
    m = draw(st.integers(1, 60))
    m0 = draw(st.sampled_from(divisors(m)))
    nrows = draw(st.integers(0, 4))
    phi0 = euler_phi(m0)
    return m, m0, draw(st.lists(slot_ints, min_size=nrows * phi0, max_size=nrows * phi0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(order_pair_and_rows())
def test_lift_slots_matches_the_row_oracle(case):
    m, m0, ints = case
    phi0 = euler_phi(m0)
    want = []
    for i in range(0, len(ints), phi0):
        want.extend(FractionCyclotomic(m0, ints[i : i + phi0]).lift(m).coeffs)
    assert lift_slots(ints, m0, m) == want


@pytest.mark.parametrize("m", range(1, 61))
@settings(max_examples=4, deadline=None, derandomize=True)
@given(st.data())
def test_conj_slots_matches_the_row_oracle(m, data):
    phi = euler_phi(m)
    nrows = data.draw(st.integers(0, 4))
    ints = data.draw(st.lists(slot_ints, min_size=nrows * phi, max_size=nrows * phi))
    want = []
    for i in range(0, len(ints), phi):
        want.extend(FractionCyclotomic(m, ints[i : i + phi]).conjugate().coeffs)
    got = conj_slots(ints, m)
    assert got == want and got is not ints
    assert conj_slots(got, m) == ints  # an involution


@settings(max_examples=150, deadline=None, derandomize=True)
@given(order_pair_and_rows(), st.data())
def test_mul_slots_matches_the_row_oracle(case, data):
    m, _, _ = case
    phi = euler_phi(m)
    nrows = data.draw(st.integers(0, 4))
    ints = data.draw(st.lists(slot_ints, min_size=nrows * phi, max_size=nrows * phi))
    row = data.draw(st.lists(st.integers(-50, 50), min_size=phi, max_size=phi))
    y = FractionCyclotomic(m, row)
    want = []
    for i in range(0, len(ints), phi):
        want.extend((FractionCyclotomic(m, ints[i : i + phi]) * y).coeffs)
    assert mul_slots(ints, row, m) == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 16), st.integers(0, 4), st.integers(1, 4), st.integers(0, 4), st.data())
def test_spread_matches_the_row_reference(phi, nrows, step, pad, data):
    width = (phi - 1) * step + 1 + pad
    v = data.draw(st.lists(slot_ints, min_size=nrows * phi, max_size=nrows * phi))
    want = []
    for i in range(0, len(v), phi):
        block = [0] * width
        for j, x in enumerate(v[i : i + phi]):
            block[j * step] = x
        want.extend(block)
    assert _spread(v, phi, width, step) == want
