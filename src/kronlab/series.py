"""Truncated series substrate: q-expansions, (u,v) jets and the (X,Y,T) container.

Precision is a hard contract: reading a coefficient at or beyond the declared
precision raises, and binary operations never claim more precision than the
weaker operand.

Products of exact series (int, Fraction and Cyclotomic coefficients of one
order m, mixed freely) use Kronecker substitution: each operand is written
over a common denominator as an integer vector, packed into one big int, and
the two ints are multiplied once; the product's slots are reduced mod Phi_m.
The result is coefficient for coefficient, type included, what the schoolbook
Cauchy loop gives.  Inexact series and Cyclotomics of several orders fall
back to that loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, lcm

from .arith import Cyclotomic, RingMismatchError, _reduce_mod_phi, scalar_to_json
from .ntheory import euler_phi


class PrecisionError(IndexError):
    """A coefficient beyond the declared precision was requested."""


def _has_cyclotomic(coeffs) -> bool:
    return any(isinstance(c, Cyclotomic) for c in coeffs)


def _has_float(coeffs) -> bool:
    return any(isinstance(c, (float, complex)) for c in coeffs)


class QSeries:
    """q-expansion truncated at q^prec with an optional weight tag."""

    __slots__ = ("prec", "coeffs", "weight")

    def __init__(self, prec: int, coeffs, weight: int | None = None):
        if prec < 1:
            raise ValueError("precision must be >= 1")
        coeffs = list(coeffs)
        if len(coeffs) > prec:
            coeffs = coeffs[:prec]
        coeffs += [0] * (prec - len(coeffs))
        self.prec = prec
        self.coeffs = tuple(coeffs)
        self.weight = weight

    @staticmethod
    def zero(prec: int, weight=None) -> "QSeries":
        return QSeries(prec, [], weight)

    @staticmethod
    def constant(value, prec: int, weight=None) -> "QSeries":
        return QSeries(prec, [value], weight)

    def coeff(self, n: int):
        if n < 0:
            return 0
        if n >= self.prec:
            raise PrecisionError(f"coefficient q^{n} beyond precision {self.prec}")
        return self.coeffs[n]

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise PrecisionError("cannot extend precision by truncation")
        return QSeries(prec, self.coeffs[:prec], self.weight)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.prec != other.prec:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, QSeries):
            return qs_add(self, other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, QSeries):
            return qs_add(self, qs_scale(other, -1))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return qs_mul(self, other)
        return qs_scale(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return qs_scale(self, -1)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return f"QSeries(prec={self.prec}, [{head}, ...])"

    def to_json(self):
        return {"prec": self.prec, "coeffs": [scalar_to_json(c) for c in self.coeffs]}


def _check_rings(a: QSeries, b: QSeries):
    if (_has_cyclotomic(a.coeffs) and _has_float(b.coeffs)) or (
        _has_float(a.coeffs) and _has_cyclotomic(b.coeffs)
    ):
        raise RingMismatchError("cannot mix cyclotomic and floating q-series")


def qs_add(a: QSeries, b: QSeries) -> QSeries:
    _check_rings(a, b)
    prec = min(a.prec, b.prec)
    return QSeries(prec, [a.coeffs[n] + b.coeffs[n] for n in range(prec)], a.weight)


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    """Truncated Cauchy product at the minimum of the two precisions."""
    _check_rings(a, b)
    prec = min(a.prec, b.prec)
    xs, ys = a.coeffs[:prec], b.coeffs[:prec]
    out = _kronecker_mul(xs, ys)
    if out is None:
        out = _schoolbook_mul(xs, ys)
    w = None
    if a.weight is not None and b.weight is not None:
        w = a.weight + b.weight
    return QSeries(prec, out, w)


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


# Levels of a coefficient; the schoolbook loop gives each product coefficient
# the highest level among its contributing (nonzero) factors, or int 0.
_ZERO, _INT, _FRACTION, _CYCLO = range(4)


def _kronecker_mul(xs, ys) -> list | None:
    """The schoolbook product by Kronecker substitution, or None if unpackable.

    A coefficient becomes phi(m) integer slots (a rational uses slot 0 only),
    padded to a stride of 2 phi(m) - 1 so that the product of two coefficients
    fits in one stride before its reduction mod Phi_m.
    """
    m = _single_order(xs, ys)
    if m is None:
        return None
    n = len(xs)
    phi = euler_phi(m)
    stride = 2 * phi - 1
    da, va, la = _int_vector(xs, stride)
    db, vb, lb = _int_vector(ys, stride)
    if not (any(la) and any(lb)):
        return [0] * n
    bits = (
        max(x.bit_length() for x in va)
        + max(x.bit_length() for x in vb)
        + (n * phi).bit_length()
        + 1
    )
    wb = (bits + 7) // 8
    slots = _unpack(_pack(va, wb) * _pack(vb, wb), wb, n * stride)
    den = da * db
    out = []
    for k, level in enumerate(_product_levels(la, lb)):
        c = slots[k * stride]
        if level == _ZERO:
            out.append(0)
        elif level == _INT:
            out.append(c // den)
        elif level == _FRACTION:
            out.append(Fraction(c, den))
        else:
            row = _reduce_mod_phi(m, slots[k * stride : (k + 1) * stride])
            out.append(Cyclotomic(m, [Fraction(x, den) for x in row]))
    return out


def _single_order(xs, ys) -> int | None:
    """The order shared by all nonzero Cyclotomic coefficients (1 if none);
    None for inexact coefficients or several orders."""
    m = None
    for c in xs + ys:
        if isinstance(c, Cyclotomic):
            if c.order != m and c:
                if m is not None:
                    return None
                m = c.order
        elif not isinstance(c, (int, Fraction)):
            return None
    return m or 1


def _int_vector(xs, stride: int):
    """(d, v, levels): the common denominator d of xs, the integer slots of
    d * xs at `stride` apart, and the level of each coefficient."""
    dens = set()
    for c in xs:
        if isinstance(c, Cyclotomic):
            dens.update(x.denominator for x in c.coeffs)
        else:
            dens.add(c.denominator)
    d = lcm(*dens)
    v = [0] * (len(xs) * stride)
    levels = []
    for i, c in enumerate(xs):
        if not c:
            levels.append(_ZERO)
        elif isinstance(c, Cyclotomic):
            levels.append(_CYCLO)
            for j, x in enumerate(c.coeffs):
                v[i * stride + j] = x.numerator * (d // x.denominator)
        else:
            levels.append(_INT if isinstance(c, int) else _FRACTION)
            v[i * stride] = c.numerator * (d // c.denominator)
    return d, v, levels


def _product_levels(la, lb) -> list:
    """Level of each product coefficient in the schoolbook loop.

    pairs(t)[k] counts the pairs (i, k-i) whose factors are both nonzero and
    of level <= t; coefficient k has the least level t that all its
    contributing pairs respect.
    """
    n = len(la)
    wb = (n.bit_length() + 8) // 8

    def pairs(t):
        ma = _pack([int(0 < x <= t) for x in la], wb)
        mb = _pack([int(0 < x <= t) for x in lb], wb)
        return _unpack(ma * mb, wb, n)

    present = sorted(set(la).union(lb) - {_ZERO})
    total = pairs(present[-1])
    levels = [present[-1] if c else _ZERO for c in total]
    for t in reversed(present[:-1]):
        for k, c in enumerate(pairs(t)):
            if c and c == total[k]:
                levels[k] = t
    return levels


def _pack(v, wb: int) -> int:
    """sum_k v[k] 2^(8 wb k) for signed v[k] of at most 8 wb bits."""
    packed = int.from_bytes(
        b"".join((x if x > 0 else 0).to_bytes(wb, "little") for x in v), "little"
    )
    if any(x < 0 for x in v):
        packed -= int.from_bytes(
            b"".join((-x if x < 0 else 0).to_bytes(wb, "little") for x in v), "little"
        )
    return packed


def _unpack(packed: int, wb: int, n: int) -> list:
    """The first n slots of a packed int whose slots lie in (-2^(8 wb - 1), 2^(8 wb - 1))."""
    half = 1 << (8 * wb - 1)
    bias = int.from_bytes(half.to_bytes(wb, "little") * n, "little")
    low = (packed + bias) & ((1 << (8 * wb * n)) - 1)
    buf = low.to_bytes(wb * n, "little")
    return [int.from_bytes(buf[k : k + wb], "little") - half for k in range(0, wb * n, wb)]


def qs_scale(a: QSeries, c) -> QSeries:
    if c == 0:
        return QSeries.zero(a.prec, a.weight)
    return QSeries(a.prec, [c * x if x != 0 else 0 for x in a.coeffs], a.weight)


def theta_op(f: QSeries, m: int = 1) -> QSeries:
    """(q d/dq)^m: multiplies the n-th coefficient by n^m."""
    if m < 0:
        raise ValueError("theta power must be >= 0")
    if m == 0:
        return f
    return QSeries(f.prec, [f.coeffs[n] * n**m for n in range(f.prec)], f.weight)


def qs_rescale(f: QSeries, d: int, prec: int | None = None) -> QSeries:
    """q -> q^d on coefficients: out[d*n] = a_n.

    A target precision P only needs ceil(P/d) input coefficients, so keeping
    the container width is always sound.
    """
    if d < 1:
        raise ValueError("rescale factor must be >= 1")
    prec = f.prec if prec is None else prec
    if ceil(prec / d) > f.prec:
        raise PrecisionError("insufficient input precision for rescale")
    out = [0] * prec
    for n in range(f.prec):
        if n * d >= prec:
            break
        out[n * d] = f.coeffs[n]
    return QSeries(prec, out, f.weight)


# ---------------------------------------------------------------------------
# Two-variable jets

class BiJet:
    """Jet in (u, v) up to total degree D with polar slots for 1/u and 1/v.

    Entries map (r, s) -> QSeries; missing entries are zero.
    """

    __slots__ = ("degree", "prec", "entries", "polar_u", "polar_v")

    def __init__(self, degree, prec, entries, polar_u=0, polar_v=0):
        self.degree = degree
        self.prec = prec
        self.entries = dict(entries)
        self.polar_u = polar_u
        self.polar_v = polar_v

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
        if (self.degree, self.prec) != (other.degree, other.prec):
            return False
        if not (self.polar_u == other.polar_u and self.polar_v == other.polar_v):
            return False
        return all(self.entry(r, s) == other.entry(r, s) for r, s in self.cells())

    __hash__ = None

    def to_json(self):
        return {
            "degree": self.degree,
            "prec": self.prec,
            "polar_u": scalar_to_json(self.polar_u),
            "polar_v": scalar_to_json(self.polar_v),
            "entries": {
                f"u{r}_v{s}": self.entries[(r, s)].to_json()
                for (r, s) in sorted(self.entries)
                if not self.entries[(r, s)].is_zero()
            },
        }


class SubstitutedJet:
    """A BiJet after (u,v) -> monomials in (X,Y,T): maps T-degree -> bivariate rows.

    The polar slots land at T-degree -1.
    """

    __slots__ = ("prec", "layers")

    def __init__(self, prec, layers):
        self.prec = prec
        self.layers = layers  # dict t -> dict (a, b) -> QSeries


def bijet_substitute(F: BiJet, target: str) -> SubstitutedJet:
    """Substitute (u,v) -> (XT, YT) or (T, -XYT) into a jet.

    Monomial bookkeeping: u^r v^s goes to X^r Y^s T^(r+s) in the first
    pattern and to (-1)^s (XY)^s T^(r+s) in the second; polar slots become
    T^(-1) records (1/u -> X^(-1)/T resp. 1/T, and 1/v similarly).
    """
    layers: dict[int, dict] = {}

    def add(t, key, series):
        row = layers.setdefault(t, {})
        row[key] = row[key] + series if key in row else series

    if target == "XT_YT":
        for (r, s), f in F.entries.items():
            add(r + s, (r, s), f)
        if F.polar_u != 0:
            add(-1, (-1, 0), QSeries.constant(F.polar_u, F.prec))
        if F.polar_v != 0:
            add(-1, (0, -1), QSeries.constant(F.polar_v, F.prec))
    elif target == "T_-XYT":
        for (r, s), f in F.entries.items():
            add(r + s, (s, s), qs_scale(f, (-1) ** s) if s % 2 else f)
        if F.polar_u != 0:
            add(-1, (0, 0), QSeries.constant(F.polar_u, F.prec))
        if F.polar_v != 0:
            add(-1, (-1, -1), QSeries.constant(-F.polar_v, F.prec))
    else:
        raise ValueError(f"unsupported substitution pattern {target!r}")
    return SubstitutedJet(F.prec, layers)


class TriGen:
    """Generating function in (X, Y, T): weight slices plus a T^(-2) principal part.

    weights[k] is a bivariate Laurent row (a, b) -> QSeries for the T^(k-2)
    coefficient; principal maps (a, b) -> scalar and is present only when
    chi(0) != 0 (level 1).
    """

    __slots__ = ("kmax", "prec", "weights", "principal")

    def __init__(self, kmax, prec, weights, principal=None):
        self.kmax = kmax
        self.prec = prec
        self.weights = weights
        self.principal = principal

    def slice(self, k: int) -> dict:
        if k < 2 or k > self.kmax:
            raise PrecisionError(f"weight {k} outside container range")
        return self.weights.get(k, {})

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


def trigen_mul(A: SubstitutedJet, B: SubstitutedJet, kmax: int) -> TriGen:
    """Collect the product of two substituted jets by powers of T."""
    prec = min(A.prec, B.prec)
    weights: dict[int, dict] = {}
    principal: dict = {}
    for ta, rows_a in A.layers.items():
        for tb, rows_b in B.layers.items():
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
            row = weights.setdefault(k, {})
            for (a1, b1), f in rows_a.items():
                for (a2, b2), g in rows_b.items():
                    key = (a1 + a2, b1 + b2)
                    prod = qs_mul(f, g)
                    row[key] = row[key] + prod if key in row else prod
    for row in weights.values():
        for key in [k for k, q in row.items() if q.is_zero()]:
            del row[key]
    principal = {k: v for k, v in principal.items() if v != 0} or None
    return TriGen(kmax, prec, weights, principal)


class LaurentPolyX:
    """Laurent polynomial in one variable with exponents in [-1, k-1]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {e: c for e, c in coeffs.items() if c != 0}

    def __eq__(self, other):
        if not isinstance(other, LaurentPolyX):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coeffs.get(e, 0) == other.coeffs.get(e, 0) for e in keys)

    __hash__ = None

    def __repr__(self):
        terms = [f"({c})*X^{e}" for e, c in sorted(self.coeffs.items())]
        return " + ".join(terms) if terms else "0"

    def scale(self, c):
        return LaurentPolyX({e: c * v for e, v in self.coeffs.items()})

    def even_part(self):
        return LaurentPolyX({e: c for e, c in self.coeffs.items() if e % 2 == 0})

    def odd_part(self):
        return LaurentPolyX({e: c for e, c in self.coeffs.items() if e % 2 != 0})

    def to_json(self):
        return {str(e): scalar_to_json(c) for e, c in sorted(self.coeffs.items())}

