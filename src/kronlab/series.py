"""Truncated series substrate: q-expansions, (u,v) jets and the (X,Y,T) container.

Precision is a hard contract: reading a coefficient at or beyond the declared
precision raises, and binary operations never claim more precision than the
weaker operand.

An exact series lies in one field Q(zeta_m), m the lcm of the orders of all
its Cyclotomic coefficients (zero ones included), and is its slot rows: one
denominator and, per coefficient, the phi(m) integer numerators of an
arith.Cyclotomic row.  A coefficient's type follows from its value and m:
over Q (m = 1) it reads as an int or Fraction; for m > 1 a nonzero one reads
as a Cyclotomic of order m and a zero one as the int 0.  A coefficient list
is converted when the series is built; every series operation reads and
writes slots only, lifting rows with arith.lift_slots and multiplying them
by a Cyclotomic scale with arith.mul_slots.  Sums, scales and products have
one kernel, qs_sums: rows of sum c a b + sum c a, each over Q(zeta_m), m the
lcm of the orders of the row's series and Cyclotomic scales (a series of a
lower order is lifted); qs_sum is its one-row call, and qs_add, qs_scale and
qs_mul are single calls of that.  Products are taken by Kronecker
substitution per zeta-component: an operand's phi(m) components (slot j of
every coefficient) are packed into phi(m) big ints, a row's products are
multiplied and added per zeta-degree i + j, the degrees phi(m) and up are
folded into the first phi(m) by x^e mod Phi_m as big-int multiply-adds, and
each component is unpacked once, so a row unpacks phi(m) prec slots and
reduces none; divisor_sum's slots are reduced mod Phi_m in one call of
arith's column-wise kernel.  Within one qs_sums call an operand that
several rows read is lifted once and packed once per slot width; orbit_sums,
one call with a row per X <-> Y orbit of a weight slice's monomials
(slice_orbits), is the one sum behind product_B's closed route, trigen_mul
and periods.CSlice.rows; the rank-one extraction finds a slice's orbits
itself and sums its representatives' remainders in one qs_sums call.
theta_op, qs_conj, truncate, qs_rescale and u_op map slots to slots; divisor_sum writes
the twisted divisor sums behind the Eisenstein series and the Fourier jet
straight into slots: one exponent table, one scale and one exponent pair or
two, in one pass over the divisor pairs.
Equality compares the slot lists at a shared denominator and cross-multiplies
them otherwise.  An inexact coefficient is refused with RingMismatchError
when the series is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, lcm

from .arith import (
    Cyclotomic, RingMismatchError, _power_table, _reduce_rows, conj_slots, lift_slots, mul_slots, scalar_to_json,
)
from .ntheory import euler_phi


class PrecisionError(IndexError):
    """A coefficient beyond the declared precision was requested."""


class QSeries:
    """q-expansion truncated at q^prec, over one field Q(zeta_order).

    Coefficient n is ints[n phi : (n + 1) phi] / den in the power basis of
    Q(zeta_order), phi = phi(order).  It reads as an int or Fraction (slot
    0) when order is 1, and otherwise as a Cyclotomic of this order when
    nonzero and the int 0 when zero.  A coefficient list is converted to
    these slots when the series is built; its Cyclotomic entries are lifted
    to the lcm of their orders.  `coeffs` reads the coefficients back, built
    on first read and kept.
    """

    __slots__ = ("prec", "order", "den", "ints", "_coeffs")

    def __init__(self, prec: int, coeffs):
        if prec < 1:
            raise ValueError("precision must be >= 1")
        coeffs = list(coeffs)[:prec]
        coeffs += [0] * (prec - len(coeffs))
        for c in coeffs:
            _check_exact(c)
        orders = {c.order for c in coeffs if isinstance(c, Cyclotomic)}
        if not orders:
            den = lcm(*{c.denominator for c in coeffs})
            self._set(prec, 1, den, [c.numerator * (den // c.denominator) for c in coeffs])
            return
        m = lcm(*orders)
        phi = euler_phi(m)
        rows = [
            (c.den, lift_slots(c.nums, c.order, m))
            if isinstance(c, Cyclotomic)
            else (c.denominator, (c.numerator,))
            for c in coeffs
        ]
        den = lcm(*{d for d, _ in rows})
        ints = [0] * (prec * phi)
        for n, (d, row) in enumerate(rows):
            ints[n * phi : n * phi + len(row)] = [x * (den // d) for x in row]
        self._set(prec, m, den, ints)

    def _set(self, prec: int, order: int, den: int, ints: list) -> "QSeries":
        self.prec, self.order, self.den, self.ints = prec, order, den, ints
        self._coeffs = None
        return self

    @staticmethod
    def _of(prec: int, order: int, den: int, ints: list) -> "QSeries":
        """The series with these slots (see the class docstring)."""
        return QSeries.__new__(QSeries)._set(prec, order, den, ints)

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            if self.order == 1:
                d = self.den
                self._coeffs = tuple(Fraction(x, d) if x % d else x // d for x in self.ints)
            else:
                self._coeffs = tuple(self._read(n) for n in range(self.prec))
        return self._coeffs

    @staticmethod
    def zero(prec: int) -> "QSeries":
        return QSeries._of(prec, 1, 1, [0] * prec)

    @staticmethod
    def constant(value, prec: int) -> "QSeries":
        _check_exact(value)
        if isinstance(value, Cyclotomic):
            tail = [0] * (len(value.nums) * (prec - 1))
            return QSeries._of(prec, value.order, value.den, [*value.nums, *tail])
        return QSeries._of(prec, 1, value.denominator, [value.numerator] + [0] * (prec - 1))

    def coeff(self, n: int):
        if n < 0:
            return 0
        if n >= self.prec:
            raise PrecisionError(f"coefficient q^{n} beyond precision {self.prec}")
        return self._read(n)

    def _read(self, n: int):
        """Coefficient n: an int or Fraction over Q, else a Cyclotomic of this
        order when nonzero and the int 0 when zero."""
        d = self.den
        if self.order == 1:
            x = self.ints[n]
            return Fraction(x, d) if x % d else x // d
        phi = euler_phi(self.order)
        row = self.ints[n * phi : (n + 1) * phi]
        return Cyclotomic._of(self.order, d, row) if any(row) else 0

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise PrecisionError("cannot extend precision by truncation")
        return QSeries._of(prec, self.order, self.den, self.ints[: prec * euler_phi(self.order)])

    def is_zero(self) -> bool:
        return not any(self.ints)

    def __eq__(self, other):
        """Equal precision and values: at one order and one den the slot
        lists are compared as they stand; at one order and two dens they
        are cross-multiplied, so neither den need be reduced; across orders
        the qs_sum difference is tested for zero."""
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.prec != other.prec:
            return False
        if self.order == other.order:
            if self.den == other.den:
                return self.ints == other.ints
            da, db = self.den, other.den
            return all(x * db == y * da for x, y in zip(self.ints, other.ints))
        return qs_sum([(1, self, None), (-1, other, None)]).is_zero()

    __hash__ = None

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return f"QSeries(prec={self.prec}, [{head}, ...])"

    def to_json(self):
        return {"prec": self.prec, "coeffs": [scalar_to_json(c) for c in self.coeffs]}


def _check_exact(c):
    if not isinstance(c, (int, Fraction, Cyclotomic)):
        raise RingMismatchError(f"{type(c).__name__} coefficients are not exact")


def qs_add(a: QSeries, b: QSeries) -> QSeries:
    return qs_sum([(1, a, None), (1, b, None)])


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    """Truncated Cauchy product at the minimum of the two precisions: the
    single-term call qs_sum([(1, a, b)]).

    The product lies in Q(zeta_m), m the lcm of both operands' orders, and
    its coefficients read by the value rule of the class QSeries.
    """
    return qs_sum([(1, a, b)])


def qs_sum(terms) -> QSeries:
    """sum c a b + sum c a over Q(zeta_m) in one pass: qs_sums([terms])[0],
    computed by qs_sums' row kernel without the call's memo."""
    return _sum_row(terms, None)


def qs_sums(rows) -> list:
    """[sum c a b + sum c a for each row of terms], each over its own
    Q(zeta_m) and exact at the minimum precision of the row's operands.

    Each term is (c, a, b), b None for a linear term.  The scale c is an int,
    Fraction or Cyclotomic.  A row's result equals its terms computed one
    coefficient at a time and added with +.  It lies in Q(zeta_m), m the lcm
    of the orders of the operands and Cyclotomic scales of the row's terms
    whose scale is not 0, and its coefficients read by the value rule of the
    class QSeries.  A row's result does not depend on the other rows.

    Every operand's slots in a row are used at the row's order m, over one
    denominator.  The product terms are taken by zeta-components (Kronecker
    substitution per component): an operand's phi(m) components, prec slots
    each, are packed as phi(m) big ints at a slot width that holds the row's
    largest folded sum; a term's integer scale is multiplied into its first
    operand's components, and the component products are summed per
    zeta-degree e = i + j.  The degrees e >= phi(m) are folded into the
    first phi(m) with the rows x^e mod Phi_m (arith._power_table) as big-int
    multiply-adds, and each component is unpacked once, prec slots, so no
    row is reduced after unpacking.  An operand that several rows of a call
    read at one order and precision is lifted once, and packed once per
    slot width.  The linear terms are added to a row's
    slots as integers, or start them when there is no product.  An operand
    already at order m and at the row's precision is read in place, not
    copied; every sum is a new list, and no result shares an operand's slots.
    """
    rows = list(rows)
    # the call's lifted slots, bit widths and packed ints, keyed by id; each
    # value holds its key's object, so no id is freed and reused in the call
    memo = ({}, {}, {}) if len(rows) > 1 else None
    return [_sum_row(terms, memo) for terms in rows]


def _sum_row(terms, memo) -> QSeries:
    """One row of qs_sums, reading and filling the call's memo (None: no memo)."""
    # one pass over the terms: the row's precision, its live terms (scale
    # not 0) and the lcm m of their orders
    prec, m, live = None, 1, []
    for c, fa, fb in terms:
        p = fa.prec if fb is None or fa.prec <= fb.prec else fb.prec
        if prec is None or p < prec:
            prec = p
        if not c:
            continue
        live.append((c, fa, fb))
        order = fa.order
        if fb is not None and fb.order != order:
            order = lcm(order, fb.order)
        if isinstance(c, Cyclotomic):
            order = lcm(order, c.order)
        if m % order:
            m = lcm(m, order)
    phi = euler_phi(m)

    # each term as (integer scale, denominator, slot vectors at order m)
    prepared = []
    for c, fa, fb in live:
        va, den = _slots_at(fa, m, prec, memo), fa.den
        if isinstance(c, Cyclotomic):
            va = mul_slots(va, lift_slots(c.nums, c.order, m), m)
            den, num = den * c.den, 1
        else:
            num, den = c.numerator, den * c.denominator
        vb = None
        if fb is not None:
            vb, den = _slots_at(fb, m, prec, memo), den * fb.den
        prepared.append((num, den, va, vb))
    d = lcm(*(den for _, den, _, _ in prepared))
    ints = None

    # products by zeta-components: each operand's phi components (prec slots
    # each) packed as big ints, the products summed per zeta-degree i + j,
    # the degrees >= phi folded into the first phi by x^e mod Phi_m on the
    # packed ints, and each component unpacked once
    products = [(num * (d // den), va, vb) for num, den, va, vb in prepared if vb is not None]
    if products:
        bits = max(s.bit_length() + _bit_width(va, memo) + _bit_width(vb, memo) for s, va, vb in products)
        bits += (prec * phi).bit_length() + len(products).bit_length() + _fold_bits(m) + 1
        wb = (bits + 7) // 8
        acc = [0] * (2 * phi - 1)
        for s, va, vb in products:
            pb = _packed(vb, phi, wb, memo)
            for i, x in enumerate(_packed(va, phi, wb, memo)):
                if x:
                    if s != 1:
                        x *= s
                    for j, y in enumerate(pb):
                        if y:
                            acc[i + j] += x * y
        for e, row in enumerate(_power_table(m)[: phi - 1], phi):
            c = acc[e]
            if c:
                for j, r in enumerate(row):
                    if r:
                        acc[j] += r * c
        if phi == 1:
            ints = _unpack(acc[0], wb, prec)
        else:
            ints = [0] * (prec * phi)
            for j in range(phi):
                ints[j::phi] = _unpack(acc[j], wb, prec)

    # linear terms: added slot by slot, each sum a new list; the first one
    # starts the sum when there is no product
    for num, den, va, vb in prepared:
        if vb is None:
            s = num * (d // den)
            if ints is None:
                ints = va if s == 1 else [s * y for y in va]
            else:
                ints = [x + s * y for x, y in zip(ints, va)] if s != 1 else [x + y for x, y in zip(ints, va)]
    if ints is None or not any(ints):  # every scale is 0, or the terms cancel
        return QSeries._of(prec, m, 1, [0] * (prec * phi))

    g = gcd(d, *ints)
    if g > 1:
        d, ints = d // g, [x // g for x in ints]
    elif any(ints is fa.ints for _, fa, _ in live):  # never share an operand's slots
        ints = list(ints)
    return QSeries._of(prec, m, d, ints)


def _slots_at(f: QSeries, m: int, prec: int, memo) -> list:
    """The slots of f's first prec coefficients at order m: f's own list if
    they are that, else lifted (once per call with a memo)."""
    if f.order == m and f.prec == prec:
        return f.ints
    if memo is None:
        return lift_slots(f.ints[: prec * euler_phi(f.order)], f.order, m)
    key = (id(f), m, prec)
    hit = memo[0].get(key)
    if hit is None:
        hit = memo[0][key] = f, lift_slots(f.ints[: prec * euler_phi(f.order)], f.order, m)
    return hit[1]


def _bit_width(v: list, memo) -> int:
    """The largest bit length in v (once per call with a memo)."""
    if memo is None:
        return max(map(int.bit_length, v))
    hit = memo[1].get(id(v))
    if hit is None:
        hit = memo[1][id(v)] = v, max(map(int.bit_length, v))
    return hit[1]


def _packed(v: list, phi: int, wb: int, memo) -> list:
    """v's phi zeta-components v[i::phi], each packed at wb bytes a slot
    (once per call and width with a memo)."""
    if memo is None:
        return [_pack(v[i::phi], wb) for i in range(phi)]
    key = (id(v), wb)
    hit = memo[2].get(key)
    if hit is None:
        hit = memo[2][key] = v, [_pack(v[i::phi], wb) for i in range(phi)]
    return hit[1]


@lru_cache(maxsize=None)
def _fold_bits(m: int) -> int:
    """The bits by which folding the zeta-degrees phi .. 2 phi - 2 into the
    first phi can grow a slot: ceil(log2(1 + S)), S the largest column sum
    over j of |x^e mod Phi_m|_j; 0 when phi = 1, where nothing folds."""
    rows = _power_table(m)[: euler_phi(m) - 1]
    return max(map(sum, zip(*(map(abs, row) for row in rows))), default=0).bit_length()


def qs_proportional(f: QSeries, g: QSeries) -> bool:
    """Whether f = t g for one scalar t: both series' slots at the lcm of
    their orders, cross-multiplied against g's first nonzero coefficient
    (f g_j = f_j g, one mul_slots a side), so neither denominator need be
    reduced.  ValueError when g is zero below the common precision."""
    prec, m = min(f.prec, g.prec), lcm(f.order, g.order)
    x, y = _slots_at(f, m, prec, None), _slots_at(g, m, prec, None)
    phi = euler_phi(m)
    i = next((i for i, v in enumerate(y) if v), None)
    if i is None:
        raise ValueError("g is zero below the precision")
    j = (i // phi) * phi
    return mul_slots(x, y[j : j + phi], m) == mul_slots(y, x[j : j + phi], m)


def _pack(v, wb: int) -> int:
    """sum_k v[k] 2^(8 wb k) for signed v[k] in (-2^(8 wb - 1), 2^(8 wb - 1))."""
    half = 1 << (8 * wb - 1)
    biased = b"".join([(x + half).to_bytes(wb, "little") for x in v])
    return int.from_bytes(biased, "little") - int.from_bytes(
        half.to_bytes(wb, "little") * len(v), "little"
    )


def _unpack(packed: int, wb: int, n: int) -> list:
    """The first n slots of a packed int whose slots lie in (-2^(8 wb - 1), 2^(8 wb - 1))."""
    half = 1 << (8 * wb - 1)
    bias = int.from_bytes(half.to_bytes(wb, "little") * n, "little")
    low = (packed + bias) & ((1 << (8 * wb * n)) - 1)
    buf = low.to_bytes(wb * n, "little")
    return [int.from_bytes(buf[k : k + wb], "little") - half for k in range(0, wb * n, wb)]


def qs_scale(a: QSeries, c) -> QSeries:
    return qs_sum([(c, a, None)])


def divisor_sum(prec: int, order: int, t, c, pairs, constant=0) -> QSeries:
    """constant + sum_{n>=1} q^n sum_{de=n} c zeta^t(d) sum_pairs d^a e^b
    over Q(zeta_order), exact.

    t is the exponent table of a character of this order
    (DirichletCharacter.exponents: the value at d is zeta_order^t[d mod
    len(t)], 0 where that is None), c an int or Fraction, and pairs one
    exponent pair (a, b) or two; the value read at e instead of d is the
    pair (b, a).  Each c d^a e^b is an integer over one common denominator,
    added into slot t(d) of coefficient n's exponent slots in one pass over
    the divisor pairs (d, e), one += per (d, n), and all of them are reduced
    mod Phi_order in one column-wise pass.  Coefficient 0 is the constant, a
    Cyclotomic whose order divides this order or a rational.  The series
    lies in Q(zeta_order), or in Q when every coefficient it holds is
    rational.
    """
    c = Fraction(c)
    if isinstance(constant, Cyclotomic):
        hden, head = constant.den, lift_slots(constant.nums, constant.order, order)
    else:
        hden, head = constant.denominator, [constant.numerator]
    den = lcm(hden, c.denominator)
    s = c.numerator * (den // c.denominator)
    # per pair, (a, [e^b for e < prec])
    pieces = [(a, [e**b for e in range(prec)]) for a, b in pairs]
    slots = [0] * (prec * order)
    for d in range(1, prec):
        x = t[d % len(t)]
        if x is None:
            continue
        if len(pieces) == 1:
            (a, ea), = pieces
            sa = s * d**a
            for n in range(d, prec, d):
                slots[n * order + x] += sa * ea[n // d]
        else:
            (a, ea), (b, eb) = pieces
            sa, sb = s * d**a, s * d**b
            for n in range(d, prec, d):
                e = n // d
                slots[n * order + x] += sa * ea[e] + sb * eb[e]
    phi = euler_phi(order)
    ints = _reduce_rows(order, slots, order)
    ints[:phi] = [x * (den // hden) for x in head] + [0] * (phi - len(head))
    if not any(any(ints[j::phi]) for j in range(1, phi)):
        order, ints = 1, ints[::phi]
    g = gcd(den, *ints)
    return QSeries._of(prec, order, den // g, [x // g for x in ints])


def theta_op(f: QSeries, m: int = 1) -> QSeries:
    """(q d/dq)^m: multiplies the n-th coefficient by n^m."""
    if m < 0:
        raise ValueError("theta power must be >= 0")
    if m == 0:
        return f
    powers = _powers(m, f.prec, euler_phi(f.order))
    return QSeries._of(f.prec, f.order, f.den, [x * y for x, y in zip(f.ints, powers)])


@lru_cache(maxsize=None)
def _powers(m: int, prec: int, phi: int) -> tuple:
    """n^m for n < prec, each repeated phi times: theta_op's slot multipliers."""
    return tuple(n**m for n in range(prec) for _ in range(phi))


def qs_conj(f: QSeries) -> QSeries:
    """zeta_m -> zeta_m^(-1) on every coefficient (the Galois conjugation
    of Q(zeta_m), m = f.order)."""
    return QSeries._of(f.prec, f.order, f.den, conj_slots(f.ints, f.order))


def qs_rescale(f: QSeries, d: int, prec: int | None = None) -> QSeries:
    """q -> q^d on coefficients: out[d*n] = a_n, a rational 0 elsewhere.

    A target precision P only needs ceil(P/d) input coefficients, so keeping
    the container width is always sound.
    """
    if d < 1:
        raise ValueError("rescale factor must be >= 1")
    prec = f.prec if prec is None else prec
    if ceil(prec / d) > f.prec:
        raise PrecisionError("insufficient input precision for rescale")
    phi, n = euler_phi(f.order), ceil(prec / d)
    ints = [0] * (prec * phi)
    for j in range(phi):
        ints[j : prec * phi : d * phi] = f.ints[j : n * phi : phi]
    return QSeries._of(prec, f.order, f.den, ints)


def u_op(f: QSeries, p: int) -> QSeries:
    """U_p: a(n) -> a(n p), at precision f.prec // p."""
    prec, phi = f.prec // p, euler_phi(f.order)
    ints = [0] * (prec * phi)
    for j in range(phi):
        ints[j::phi] = f.ints[j : prec * p * phi : p * phi]
    return QSeries._of(prec, f.order, f.den, ints)


# ---------------------------------------------------------------------------
# Two-variable jets

class BiJet:
    """Jet in (u, v) up to total degree D with the polar part polar (1/u + 1/v).

    Entries map (r, s) -> QSeries; missing entries are zero.  F^chi's polar
    part is chi(0)(1/u + 1/v), so one value serves both slots.
    """

    __slots__ = ("degree", "prec", "entries", "polar")

    def __init__(self, degree, prec, entries, polar=0):
        self.degree = degree
        self.prec = prec
        self.entries = dict(entries)
        self.polar = polar

    def entry(self, r: int, s: int) -> QSeries:
        if r < 0 or s < 0 or r + s > self.degree:
            raise PrecisionError(f"jet entry ({r},{s}) beyond degree {self.degree}")
        return self.entries.get((r, s), QSeries.zero(self.prec))

    def cells(self):
        for t in range(self.degree + 1):
            for r in range(t + 1):
                yield (r, t - r)

    def __eq__(self, other):
        if not isinstance(other, BiJet):
            return NotImplemented
        if (self.degree, self.prec, self.polar) != (other.degree, other.prec, other.polar):
            return False
        return all(self.entry(r, s) == other.entry(r, s) for r, s in self.cells())

    __hash__ = None

    def to_json(self):
        polar = scalar_to_json(self.polar)
        return {
            "degree": self.degree,
            "prec": self.prec,
            "polar_u": polar,
            "polar_v": polar,
            "entries": {
                f"u{r}_v{s}": self.entries[(r, s)].to_json()
                for (r, s) in sorted(self.entries)
                if not self.entries[(r, s)].is_zero()
            },
        }


def bijet_substitute(F: BiJet, target: str) -> dict:
    """Substitute (u,v) -> (XT, YT) or (T, -XYT) into a jet, as
    {T-degree t: {(a, b): series of X^a Y^b T^t}}.

    Monomial bookkeeping: u^r v^s goes to X^r Y^s T^(r+s) in the first
    pattern and to (-1)^s (XY)^s T^(r+s) in the second; the polar part
    becomes T^(-1) records (1/u -> X^(-1)/T resp. 1/T, and 1/v similarly).
    Each key is written once: within the layer t = r + s, (r, s) -> (r, s)
    resp. (s, s) is one-to-one, and the two polar keys are the only ones at
    t = -1.
    """
    layers: dict[int, dict] = {}

    def add(t, key, series):
        layers.setdefault(t, {})[key] = series

    if target == "XT_YT":
        for (r, s), f in F.entries.items():
            add(r + s, (r, s), f)
        polar_keys = ((-1, 0), 1), ((0, -1), 1)  # (key, sign) of 1/u and of 1/v
    elif target == "T_-XYT":
        for (r, s), f in F.entries.items():
            add(r + s, (s, s), qs_scale(f, (-1) ** s) if s % 2 else f)
        polar_keys = ((0, 0), 1), ((-1, -1), -1)
    else:
        raise ValueError(f"unsupported substitution pattern {target!r}")
    if F.polar != 0:
        for key, sign in polar_keys:
            add(-1, key, QSeries.constant(sign * F.polar, F.prec))
    return layers


class TriGen:
    """Generating function in (X, Y, T): weight slices plus a T^(-2) principal part.

    weights[k] is a bivariate Laurent row (a, b) -> QSeries for the T^(k-2)
    coefficient; principal maps (a, b) -> scalar and is present only when
    chi(0) != 0 (level 1).
    """

    __slots__ = ("weights", "principal")

    def __init__(self, weights, principal=None):
        self.weights = weights
        self.principal = principal

    def to_json(self):
        def row_json(row):
            return {
                f"X{a}_Y{b}": q.to_json()
                for (a, b), q in sorted(row.items())
                if not q.is_zero()
            }

        principal = None
        if self.principal:
            principal = {
                f"X{a}_Y{b}": scalar_to_json(c)
                for (a, b), c in sorted(self.principal.items())
                if c != 0
            }
        return {
            "principal": principal,
            "weights": {str(k): {"monomials": row_json(row)} for k, row in sorted(self.weights.items())},
        }


def slice_orbits(rows: dict) -> dict:
    """The X <-> Y orbits of a slice's monomials, as {key: representative}.

    Key (b, a) is represented by its mirror (a, b) when (a, b) comes first
    in rows and holds the same value (the same object, or an equal one);
    every other key represents itself.  B_{N,chi}'s weight slices are
    symmetric under X <-> Y, since F^chi(u, v) = F^chi(v, u), so work on a
    slice's rows need run once per orbit: orbit_sums (a row's value its list
    of terms) and the rank-one extraction (its slice row and cusp data: one
    call gives the representatives whose multipliers and remainders it
    computes, and the mirror keys that take them) both read this one rule."""
    out = {}
    for key, value in rows.items():
        mirror = (key[1], key[0])
        if out.get(mirror) == mirror and (rows[mirror] is value or rows[mirror] == value):
            out[key] = mirror
        else:
            out[key] = key
    return out


def orbit_sums(rows: dict) -> dict:
    """{key: qs_sum(terms)} for a slice's rows {key: terms}, in one qs_sums
    call with a row per X <-> Y orbit (slice_orbits): a key whose mirror
    comes first with an equal list of terms is the mirror's series, the same
    object, and the lone term (1, f, None) is f itself.  Keys whose sum is
    zero are left out."""
    orbit = slice_orbits(rows)
    sums = {key: _lone(rows[key]) for key, rep in orbit.items() if rep == key}
    reps = [key for key, q in sums.items() if q is None]
    sums.update(zip(reps, qs_sums(rows[key] for key in reps)))
    return {key: sums[rep] for key, rep in orbit.items() if not sums[rep].is_zero()}


def _lone(terms):
    """f when terms is the one linear term (1, f, None), else None."""
    c, f, g = terms[0]
    return f if len(terms) == 1 and g is None and c == 1 and not isinstance(c, Cyclotomic) else None


def trigen_mul(A: dict, B: dict, kmax: int) -> TriGen:
    """Collect the product of two substituted jets (bijet_substitute) by
    powers of T, with a row (possibly empty) for every even weight 2..kmax.

    Each weight is one orbit_sums call, so an entry that several monomials
    read is packed once per slot width, and a symmetric jet (kron_fourier's
    entry (s, r) is its entry (r, s)) is multiplied out once per orbit; an
    asymmetric one keeps a row per monomial."""
    terms: dict[int, dict] = {k: {} for k in range(2, kmax + 1, 2)}
    principal: dict = {}
    for ta, rows_a in A.items():
        for tb, rows_b in B.items():
            t = ta + tb
            if t == -2:
                for (a1, b1), f in rows_a.items():
                    for (a2, b2), g in rows_b.items():
                        key = (a1 + a2, b1 + b2)
                        val = f.coeffs[0] * g.coeffs[0]
                        principal[key] = principal.get(key, 0) + val
                continue
            k = t + 2
            if k < 2 or k > kmax:
                continue
            row = terms.setdefault(k, {})
            for (a1, b1), f in rows_a.items():
                for (a2, b2), g in rows_b.items():
                    row.setdefault((a1 + a2, b1 + b2), []).append((1, f, g))
    principal = {k: v for k, v in principal.items() if v != 0} or None
    return TriGen({k: orbit_sums(row) for k, row in terms.items()}, principal)
