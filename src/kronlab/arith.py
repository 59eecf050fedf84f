"""Exact rational and cyclotomic arithmetic plus Bernoulli machinery.

Rationals are `fractions.Fraction` (always reduced, positive denominator).
Cyclotomic elements live in Q[x]/Phi_m(x) in the power basis; elements of
different orders combine by lifting both to the lcm order.  Values are
immutable and all operations are pure, so everything is safe to share.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .linalg import solve
from .ntheory import divisors, euler_phi


class RingMismatchError(TypeError):
    """Raised when exact and floating coefficient rings are mixed."""


def rational_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials (B_1 = -1/2 convention)

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
        acc += comb(n + 1, j) * bernoulli_number(j)
    return -acc / (n + 1)


def bernoulli_polynomial(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_j C(n,j) B_j x^(n-j)."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    x = Fraction(x)
    acc = Fraction(0)
    for j in range(n + 1):
        acc += comb(n, j) * bernoulli_number(j) * x ** (n - j)
    return acc


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


def _reduce_mod_phi(m: int, conv: list[Fraction]) -> tuple[Fraction, ...]:
    phi = euler_phi(m)
    out = list(conv[:phi]) + [Fraction(0)] * max(0, phi - len(conv))
    if len(conv) > phi:
        table = _power_table(m)
        for e in range(phi, len(conv)):
            c = conv[e]
            if c:
                row = table[e - phi]
                for j in range(phi):
                    if row[j]:
                        out[j] += c * row[j]
    return tuple(out)


class Cyclotomic:
    """Exact element of Q(zeta_m) in the power basis of Phi_m."""

    __slots__ = ("order", "coeffs")
    __hash__ = None  # cross-order equality would break the hash contract

    def __init__(self, order: int, coeffs):
        phi = euler_phi(order)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}")
        self.order = order
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_rational(x, order: int = 1) -> "Cyclotomic":
        phi = euler_phi(order)
        return Cyclotomic(order, (Fraction(x),) + (Fraction(0),) * (phi - 1))

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Cyclotomic":
        power %= order
        phi = euler_phi(order)
        if power < phi:
            coeffs = [Fraction(0)] * phi
            coeffs[power] = Fraction(1)
            return Cyclotomic(order, coeffs)
        row = _power_table(order)[power - phi]
        return Cyclotomic(order, [Fraction(c) for c in row])

    @staticmethod
    def zero(order: int = 1) -> "Cyclotomic":
        return Cyclotomic.from_rational(0, order)

    # -- structure ---------------------------------------------------------
    def lift(self, order: int) -> "Cyclotomic":
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only lift to a multiple order")
        k = order // self.order
        conv = [Fraction(0)] * ((len(self.coeffs) - 1) * k + 1)
        for j, c in enumerate(self.coeffs):
            conv[j * k] = c
        return Cyclotomic(order, _reduce_mod_phi(order, conv))

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.coeffs[0]

    def inverse(self) -> "Cyclotomic":
        """The y with self * y = 1: column j of the linear system is
        self * zeta^j in the power basis, the right-hand side is 1."""
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        m, phi = self.order, euler_phi(self.order)
        columns = [(self * Cyclotomic.zeta(m, j)).coeffs for j in range(phi)]
        return Cyclotomic(m, solve([list(row) for row in zip(*columns)], [1] + [0] * (phi - 1)))

    # -- arithmetic --------------------------------------------------------
    def _pair(self, other):
        if not isinstance(other, Cyclotomic):
            return None, None
        if self.order == other.order:
            return self, other
        m = lcm(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            coeffs = (self.coeffs[0] + other,) + self.coeffs[1:]
            return Cyclotomic(self.order, coeffs)
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return Cyclotomic(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return Cyclotomic(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, tuple(c * other for c in self.coeffs))
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if b.is_rational():
            return a * b.coeffs[0]
        if a.is_rational():
            return b * a.coeffs[0]
        la, lb = len(a.coeffs), len(b.coeffs)
        conv = [Fraction(0)] * (la + lb - 1)
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    conv[i + j] += x * y
        return Cyclotomic(a.order, _reduce_mod_phi(a.order, conv))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / other)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        return f"Cyclotomic(order={self.order}, coeffs={[str(c) for c in self.coeffs]})"

    # -- export ------------------------------------------------------------
    def to_complex(self) -> complex:
        m = self.order
        out = 0j
        for j, c in enumerate(self.coeffs):
            if c:
                out += float(c) * cmath.exp(2j * cmath.pi * j / m)
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
    if isinstance(x, (int, Fraction)):
        return rational_to_str(Fraction(x))
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    raise RingMismatchError(f"cannot serialize {type(x).__name__}")
