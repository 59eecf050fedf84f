"""Dirichlet characters, Gauss sums, twisted Bernoulli numbers and L-values.

A character of order L is stored as its exponent table, built from
generators of (Z/NZ)^*: chi(n) = zeta_L^e(n), or 0 off the units.  The
tables of a modulus come from one walk of its unit group, and every entry
e is read from one tuple of the ints below L per order.  No external
label database is involved.  Its values, exact elements of Q(zeta_L), are
read from one tuple of zeta_L^e per order; its key, conjugate, parity and
conductor read the table itself, and the conductor and conjugate are kept
once built.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, gcd, lcm
from operator import mul

from .arith import Cyclotomic, _reduce_rows, bernoulli_number, embed_complex
from .ntheory import divisors, unit_group_generators

L_VALUE_TERMS = 400  # direct-summation cutoff of l_value_numeric (raised to 50 N)


class ParityError(ValueError):
    """Character parity incompatible with the requested weight."""


class DirichletCharacter:
    """Totally multiplicative character mod N, zero off the units, stored as
    its exponent table: exponents[n] = e with chi(n) = zeta_order^e, None
    where chi(n) = 0.

    For N = 1 the character is the constant 1, including chi(0) = 1.
    """

    __slots__ = ("modulus", "order", "exponents", "values", "key", "_conductor", "_conjugate")

    def __init__(self, modulus: int, exponents: tuple, order: int):
        self.modulus = modulus
        self.order = order
        self.exponents = exponents
        zero, zetas = Cyclotomic.zero(order), _zetas(order)
        self.values = tuple(zero if e is None else zetas[e] for e in exponents)
        self.key = (modulus, order, exponents)
        self._conductor = None
        self._conjugate = None

    def __call__(self, n: int):
        return self.values[n % self.modulus]

    def scalar(self, n: int):
        """Value at n, unwrapped to a Fraction when it is rational."""
        v = self.values[n % self.modulus]
        return v.rational_value() if v.is_rational() else v

    def __eq__(self, other):
        return isinstance(other, DirichletCharacter) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        kind = "even" if self.is_even() else "odd"
        prim = "primitive" if self.is_primitive() else "imprimitive"
        return f"<character mod {self.modulus}, order {self.order}, {kind}, {prim}>"

    def is_even(self) -> bool:
        return self.modulus == 1 or self.exponents[-1] == 0

    def conductor(self) -> int:
        """The least M | N with chi(a) = 1 for every unit a = 1 mod M."""
        if self._conductor is None:
            N, t = self.modulus, self.exponents
            self._conductor = next(
                M for M in divisors(N)
                if all(t[a] == 0 for a in range(1 % M, N, M) if gcd(a, N) == 1)
            )
        return self._conductor

    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus

    def conjugate(self) -> "DirichletCharacter":
        """conj(chi), built on the first call."""
        if self._conjugate is None:
            L, exponent = self.order, _exponents(self.order)
            self._conjugate = DirichletCharacter(
                self.modulus, tuple(None if e is None else exponent[-e % L] for e in self.exponents), L
            )
        return self._conjugate


def _unit_exponents(N: int, gens: list) -> list:
    """Per residue r mod N, the exponent vector (a_1, .., a_k) with
    r = g_1^a_1 ... g_k^a_k over the generators of (Z/NZ)^*, or None off the
    units: one walk of the unit group, the powers of each generator built
    once."""
    walk = [(1, ())]
    for g, d in gens:
        powers = [pow(g, a, N) for a in range(d)]
        walk = [(r * p % N, vec + (a,)) for r, vec in walk for a, p in enumerate(powers)]
    vectors = [None] * N
    for r, vec in walk:
        vectors[r] = vec
    return vectors


@lru_cache(maxsize=None)
def enumerate_characters(N: int) -> tuple[DirichletCharacter, ...]:
    """All phi(N) characters mod N, sorted by (order, value table), the table
    read as the integer rows of the values at the lcm of the orders.

    The character with exponents (e_1, .., e_k) on the generators g_i of
    orders d_i has order L = lcm(d_i / gcd(d_i, e_i)) and maps g_i to
    zeta_L^(e_i L / d_i); its table at r is the dot product of r's exponent
    vector (one walk of the unit group per modulus, `_unit_exponents`) with
    those steps, mod L, read from the shared tuple of the ints below L
    (`_exponents`), so no table holds an int of its own.

    Sorting by order first keeps the trivial character at index 0 and, for
    prime N, puts the quadratic character at index 1.  The value
    zeta_order^e is zeta_common^(e common / order), common the lcm of the
    orders, so each key is built from chi.exponents by lookups in the
    common rows of zeta_common^j (_zeta_rows), one per j; no value is lifted.
    """
    if N < 1:
        raise ValueError("modulus must be >= 1")
    if N == 1:
        return (DirichletCharacter(1, (0,), 1),)
    gens = unit_group_generators(N)
    orders = [d for _, d in gens]
    vectors = _unit_exponents(N, gens)
    chars = []
    for exps in product(*map(range, orders)):
        L = lcm(*(d // gcd(d, e) for d, e in zip(orders, exps)))
        steps, exponent = [e * L // d for d, e in zip(orders, exps)], _exponents(L)
        table = tuple(None if vec is None else exponent[sum(map(mul, vec, steps)) % L] for vec in vectors)
        chars.append(DirichletCharacter(N, table, L))
    common = lcm(*(c.order for c in chars))
    rows = _zeta_rows(common)
    zero = (0,) * len(rows[0])

    def key(c):
        step = common // c.order
        return c.order, tuple(zero if e is None else rows[e * step] for e in c.exponents)

    chars.sort(key=key)
    return tuple(chars)


@lru_cache(maxsize=None)
def _exponents(m: int) -> tuple:
    """The ints j < m, one object each, shared by every exponent table of
    order m."""
    return tuple(range(m))


@lru_cache(maxsize=None)
def _zetas(m: int) -> tuple:
    """zeta_m^j for j < m, shared by every character of order m."""
    return tuple(Cyclotomic.zeta(m, j) for j in range(m))


def _zeta_rows(m: int) -> list:
    """The integer rows (Cyclotomic.nums) of zeta_m^j for j < m."""
    return [z.nums for z in _zetas(m)]


def trivial_character(N: int = 1) -> DirichletCharacter:
    return enumerate_characters(N)[0]


@lru_cache(maxsize=None)
def gauss_sum(chi: DirichletCharacter) -> Cyclotomic:
    """W(chi) = sum_h chi(h) e^(2 pi i h / N), exact in Q(zeta_m), m = lcm(ord, N).

    Each term zeta_m^(e(h) m / ord + h m / N), e the exponent table, adds 1
    into that exponent's slot of one row of m slots, reduced mod Phi_m once."""
    N, L = chi.modulus, chi.order
    if N == 1:
        return Cyclotomic.from_rational(1)
    m = lcm(L, N)
    slots = [0] * m
    for h, e in enumerate(chi.exponents):
        if e is not None:
            slots[(e * (m // L) + h * (m // N)) % m] += 1
    return Cyclotomic._of(m, 1, _reduce_rows(m, slots, m))


@lru_cache(maxsize=None)
def twisted_bernoulli(n: int, chi: DirichletCharacter):
    """B_{n,chi} = N^(n-1) sum_{h mod N} chi(h) B_n(h/N) = sum_h chi(h) P(h) / D,
    exact: P(h) = D sum_j C(n,j) B_j N^(j-1) h^(n-j) is an integer for D = N
    lcm(den B_0, .., den B_n).  Each P(h) is added into slot chi.exponents[h]
    of one row, reduced mod Phi_order once; a rational value is a Fraction."""
    if n < 0:
        raise ValueError("index must be >= 0")
    N, L = chi.modulus, chi.order
    bs = [bernoulli_number(j) for j in range(n + 1)]
    lb = lcm(*(b.denominator for b in bs))
    poly = [comb(n, j) * b.numerator * (lb // b.denominator) * N**j for j, b in enumerate(bs)]
    slots = [0] * L
    for h, x in enumerate(chi.exponents):
        if x is not None:
            acc = 0
            for c in poly:  # Horner, highest power of h first
                acc = acc * h + c
            slots[x] += acc
    out = Cyclotomic._of(L, N * lb, _reduce_rows(L, slots, L))
    return out.rational_value() if out.is_rational() else out


def bernoulli_pair(k: int, chi1: DirichletCharacter, chi2: DirichletCharacter) -> dict:
    """{r - 1: B_{r,chi1} B_{k-r,chi2} / (r! (k-r)!)} over the even r in [0, k]
    with both factors nonzero: the pair sum behind every closed-form
    Eisenstein period polynomial."""
    out = {}
    for r in range(0, k + 1, 2):
        b1 = twisted_bernoulli(r, chi1)
        b2 = twisted_bernoulli(k - r, chi2)
        if b1 == 0 or b2 == 0:
            continue
        f = factorial(r) * factorial(k - r)
        if isinstance(b1, Fraction) and isinstance(b2, Fraction):  # one value, not b1 b2 and then f
            out[r - 1] = Fraction(b1.numerator * b2.numerator, b1.denominator * b2.denominator * f)
        else:
            out[r - 1] = b1 * b2 / f
    return out


def l_value_negative(chi: DirichletCharacter, k: int):
    """L(chi, 1-k) = -B_{k,chi}/k for (-1)^k = chi(-1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sign = 1 if chi.is_even() else -1
    if (-1) ** k != sign:
        raise ParityError(f"need (-1)^k = chi(-1); got k={k} for {chi!r}")
    return twisted_bernoulli(k, chi) * Fraction(-1, k)


def l_value_numeric(chi: DirichletCharacter, s) -> complex:
    """L(chi, s) for Re(s) > 1 by direct summation with Euler-Maclaurin tail.

    The tail over each residue class a mod N uses g(t) = (a + N t)^(-s) with
    the closed-form odd derivatives; three correction terms push the error
    well below 1e-12 at the L_VALUE_TERMS cutoff for Re(s) >= 2.
    """
    s = complex(s)
    if s.real <= 1:
        raise ValueError("direct summation mode needs Re(s) > 1")
    N = chi.modulus
    M = max(L_VALUE_TERMS, 50 * max(N, 1))
    acc = 0j
    for n in range(1, M + 1):
        v = chi(n)
        if v:
            acc += embed_complex(v) * cmath.exp(-s * cmath.log(n))
    # Euler-Maclaurin over t >= T for each class a + N*t just beyond M
    for a in range(N):
        v = chi.values[a]
        if not v:
            continue
        T = (M - a) // N + 1
        x0 = a + N * T
        w = embed_complex(v)
        integral = cmath.exp((1 - s) * cmath.log(x0)) / (N * (s - 1))
        boundary = cmath.exp(-s * cmath.log(x0)) / 2
        tail = integral + boundary
        # - sum_j B_2j/(2j)! g^(2j-1)(T); g^(m)(T) = (-1)^m N^m (s)_m x0^(-s-m)
        poch = s
        for j in (1, 2, 3):
            mder = 2 * j - 1
            deriv = -(N**mder) * poch * cmath.exp(-(s + mder) * cmath.log(x0))
            tail -= bernoulli_number(2 * j) / factorial(2 * j) * deriv
            poch *= (s + mder) * (s + mder + 1)
        acc += w * tail
    return acc
