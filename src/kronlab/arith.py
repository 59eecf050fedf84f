"""Exact rational and cyclotomic arithmetic plus Bernoulli machinery.

Rationals are `fractions.Fraction` (always reduced, positive denominator).
An element of Q(zeta_m) is one integer row: phi(m) integer numerators in the
power basis of Phi_m over one positive denominator, in lowest terms (the
standard form of a number-field element).  One reduction kernel,
_reduce_rows, brings blocks of polynomial slots to such rows, a whole column
of blocks at a time.  It serves a Cyclotomic and a series' slots alike:
lift_slots spreads rows from Q(zeta_m0) into Q(zeta_m), m a multiple of m0,
conj_slots spreads them to the conjugate exponents (zeta_m -> zeta_m^(-1)),
and mul_slots convolves rows with one element by whole-list shifted adds,
each before one reduction mod Phi_m.  Elements of different orders combine
by lifting both to the lcm order.  Values are immutable and all operations
are pure, so everything is safe to share.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .linalg import solve
from .ntheory import divisors, euler_phi


class RingMismatchError(TypeError):
    """Raised when exact and floating coefficient rings are mixed."""


def rational_to_str(x: int | Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Bernoulli numbers (B_1 = -1/2 convention)

@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """B_n via the recurrence sum_{j<=n} C(n+1,j) B_j = 0, memoized."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(n):
        if j < 2 or j % 2 == 0:  # B_j = 0 at the odd j > 1
            acc += bernoulli_number(j) * comb(n + 1, j)
    return -acc / (n + 1)


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and reduction tables

def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division in Z[x]; den is monic.  Raises if the remainder is nonzero.
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dn]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in divisors(m):
        if d < m:
            poly = _polydiv_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[int, ...], ...]:
    """x^e mod Phi_m for e = phi(m) .. max(2*phi(m)-2, m), as integer rows."""
    phi = euler_phi(m)
    top = max(2 * phi - 2, m)
    Phi = cyclotomic_poly(m)
    rows = []
    cur = [-c for c in Phi[:phi]]  # x^phi mod Phi
    rows.append(tuple(cur))
    for _ in range(phi + 1, top + 1):
        shifted = [0] + cur[:]
        lead = shifted.pop(phi)
        if lead:
            shifted = [a + lead * b for a, b in zip(shifted, rows[0])]
        cur = shifted
        rows.append(tuple(cur))
    return tuple(rows)


# ---------------------------------------------------------------------------
# The reduction kernel and the row operations on it: integer slots of
# elements of Q(zeta_m), phi slots each

def _reduce_rows(m: int, ints, width: int) -> list:
    """ints, consecutive blocks of width slots (ascending coefficients of a
    polynomial in zeta_m), as phi(m) power-basis slots per block, for
    phi(m) <= width <= max(2 phi(m) - 1, m + 1).  Column e (slot e of every
    block) is added whole into column j for each nonzero entry j of x^e mod
    Phi_m: one list operation per table entry, not a call per block."""
    phi = euler_phi(m)
    cols, table = [ints[j::width] for j in range(phi)], _power_table(m)
    for e in range(phi, width):
        col = ints[e::width]
        if any(col):
            for j, r in enumerate(table[e - phi]):
                if r:
                    cols[j] = [a + r * b for a, b in zip(cols[j], col)]
    out = [0] * (len(ints) // width * phi)
    for j, col in enumerate(cols):
        out[j::phi] = col
    return out


def _spread(v, phi: int, width: int, step: int = 1) -> list:
    """v's blocks of phi slots, slot j of each moved to slot j step of a block
    of width zeros: one slice assignment per slot."""
    out = [0] * (len(v) // phi * width)
    for j in range(phi):
        out[j * step :: width] = v[j::phi]
    return out


def lift_slots(ints, m0: int, m: int) -> list:
    """ints, rows of phi(m0) slots of elements of Q(zeta_m0), as rows of
    phi(m) slots in Q(zeta_m), m a multiple of m0: zeta_m0 -> zeta_m^(m/m0)."""
    if m0 == m:
        return list(ints)
    if m % m0:
        raise ValueError("can only lift to a multiple order")
    step, phi0 = m // m0, euler_phi(m0)
    width = max(euler_phi(m), (phi0 - 1) * step + 1)
    return _reduce_rows(m, _spread(ints, phi0, width, step), width)


def conj_slots(ints, m: int) -> list:
    """ints, rows of phi(m) slots of elements of Q(zeta_m), each under the
    Galois conjugation zeta_m -> zeta_m^(-1): slot j of a row spread to
    exponent (m - j) mod m of a block of m slots, then one reduction."""
    phi = euler_phi(m)
    if phi == 1:  # m = 1, 2: the rows are rational
        return list(ints)
    out = [0] * (len(ints) // phi * m)
    out[::m] = ints[::phi]
    for j in range(1, phi):
        out[m - j :: m] = ints[j::phi]
    return _reduce_rows(m, out, m)


def mul_slots(ints, row, m: int) -> list:
    """Each row of phi(m) slots in ints times the element row of Q(zeta_m),
    mod Phi_m: the rows spread to blocks of 2 phi(m) - 1 slots take one
    shifted, scaled whole-list add per nonzero slot of row, then one reduction."""
    if not any(row[1:]):
        s = row[0]
        return [x * s for x in ints]
    width = 2 * len(row) - 1
    spread = _spread(ints, len(row), width)
    conv = [0] * len(spread)
    for t, y in enumerate(row):
        if y:  # a block's last t slots are zero, so nothing crosses into the next
            conv[t:] = [a + y * b for a, b in zip(conv[t:], spread)]
    return _reduce_rows(m, conv, width)


class Cyclotomic:
    """Exact element of Q(zeta_m): nums / den in the power basis of Phi_m.

    nums holds phi(m) integers, den > 0 and gcd(den, *nums) = 1, so every
    element has one representation at a given order.  The constructor takes
    phi(m) ints or Fractions; `coeffs` reads them back as Fractions.
    """

    __slots__ = ("order", "den", "nums")
    __hash__ = None  # cross-order equality would break the hash contract

    def __init__(self, order: int, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != euler_phi(order):
            raise ValueError(f"need {euler_phi(order)} coefficients for order {order}")
        den = lcm(*(c.denominator for c in coeffs))
        self.order, self.den = order, den
        self.nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)

    @staticmethod
    def _of(order: int, den: int, nums) -> "Cyclotomic":
        """nums / den, den > 0, brought to lowest terms."""
        g = gcd(den, *nums)
        out = Cyclotomic.__new__(Cyclotomic)
        out.order = order
        if g == 1:
            out.den, out.nums = den, tuple(nums)
        else:
            out.den, out.nums = den // g, tuple(x // g for x in nums)
        return out

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_rational(x, order: int = 1) -> "Cyclotomic":
        """x, an int or a Fraction, at the given order: read through its
        numerator and denominator, so no copy of x is built."""
        return Cyclotomic._of(order, x.denominator, (x.numerator,) + (0,) * (euler_phi(order) - 1))

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Cyclotomic":
        power %= order
        phi = euler_phi(order)
        if power < phi:
            nums = [0] * phi
            nums[power] = 1
            return Cyclotomic._of(order, 1, nums)
        return Cyclotomic._of(order, 1, _power_table(order)[power - phi])

    @staticmethod
    def zero(order: int = 1) -> "Cyclotomic":
        return Cyclotomic.from_rational(0, order)

    # -- structure ---------------------------------------------------------
    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def lift(self, order: int) -> "Cyclotomic":
        if order == self.order:
            return self
        return Cyclotomic._of(order, self.den, lift_slots(self.nums, self.order, order))

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return Fraction(self.nums[0], self.den)

    def inverse(self) -> "Cyclotomic":
        """The y with self * y = 1: column j of the linear system is
        self * zeta^j in the power basis, the right-hand side is 1."""
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        m, phi = self.order, euler_phi(self.order)
        columns = [mul_slots(self.nums, Cyclotomic.zeta(m, j).nums, m) for j in range(phi)]
        y = solve([list(row) for row in zip(*columns)], [self.den] + [0] * (phi - 1))
        return Cyclotomic(m, y)

    # -- arithmetic --------------------------------------------------------
    def _pair(self, other):
        """self and other (a rational or Cyclotomic) at one order, or (None, None)."""
        if isinstance(other, (int, Fraction)):
            return self, Cyclotomic.from_rational(other, self.order)
        if not isinstance(other, Cyclotomic):
            return None, None
        if self.order == other.order:
            return self, other
        m = lcm(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        d = lcm(a.den, b.den)
        sa, sb = d // a.den, d // b.den
        return Cyclotomic._of(a.order, d, [x * sa + y * sb for x, y in zip(a.nums, b.nums)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._of(self.order, self.den, [-x for x in self.nums])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if a.is_rational():
            a, b = b, a
        return Cyclotomic._of(a.order, a.den * b.den, mul_slots(a.nums, b.nums, a.order))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / other)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a.den == b.den and a.nums == b.nums

    def __repr__(self):
        return f"Cyclotomic(order={self.order}, coeffs={[str(c) for c in self.coeffs]})"

    # -- export ------------------------------------------------------------
    def to_complex(self) -> complex:
        m, d = self.order, self.den
        out = 0j
        for j, x in enumerate(self.nums):
            if x:
                out += x / d * cmath.exp(2j * cmath.pi * j / m)
        return out

    def to_json(self):
        return {"order": self.order, "coeffs": [rational_to_str(c) for c in self.coeffs]}


def embed_complex(a) -> complex:
    """Numeric embedding zeta_m -> exp(2*pi*i/m); rationals and floats map to
    complex numbers, which pass through."""
    if isinstance(a, complex):
        return a
    if isinstance(a, (int, float, Fraction)):
        return complex(a)
    if isinstance(a, Cyclotomic):
        return a.to_complex()
    raise RingMismatchError(f"cannot embed {type(a).__name__}")


def scalar_to_json(x):
    if isinstance(x, Cyclotomic):
        return x.to_json()
    if isinstance(x, (int, Fraction)):  # an int has a numerator and a denominator
        return rational_to_str(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    raise RingMismatchError(f"cannot serialize {type(x).__name__}")
