"""Dirichlet characters, Gauss sums, twisted Bernoulli numbers and L-values.

A character of order L is stored as its exponent table, built from
generators of (Z/NZ)^*: chi(n) = zeta_L^e(n), or 0 off the units.  No
external label database is involved.  Its values, exact elements of
Q(zeta_L), are built once from that table; its key, conjugate, parity and
conductor read the table itself, and the conductor and conjugate are kept
once built.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, gcd, lcm

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
        zero, zetas = Cyclotomic.zero(order), [Cyclotomic.zeta(order, e) for e in range(order)]
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
            L = self.order
            self._conjugate = DirichletCharacter(
                self.modulus, tuple(None if e is None else -e % L for e in self.exponents), L
            )
        return self._conjugate


def _build_character(N: int, gens, exps) -> DirichletCharacter:
    orders = [d for _, d in gens]
    # order of the character and least zeta-order carrying all values
    L = 1
    for (g, d), e in zip(gens, exps):
        L = lcm(L, d // gcd(d, e))
    # walk the unit group by exponent vectors; the generator g_i of order d_i
    # maps to zeta_L^(e_i * L / d_i), an integer exponent by choice of L
    table = [None] * N
    for avec in product(*[range(d) for d in orders]):
        r = 1
        t = 0
        for (g, d), a, e in zip(gens, avec, exps):
            r = r * pow(g, a, N) % N
            t += a * e * L // d
        table[r] = t % L
    return DirichletCharacter(N, tuple(table), L)


@lru_cache(maxsize=None)
def enumerate_characters(N: int) -> tuple[DirichletCharacter, ...]:
    """All phi(N) characters mod N, sorted by (order, value table), the table
    read as the integer rows of the values at the lcm of the orders.

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
    chars = [
        _build_character(N, gens, exps)
        for exps in product(*[range(d) for _, d in gens])
    ]
    common = lcm(*(c.order for c in chars))
    rows = _zeta_rows(common)
    zero = (0,) * len(rows[0])

    def key(c):
        step = common // c.order
        return c.order, tuple(zero if e is None else rows[e * step] for e in c.exponents)

    chars.sort(key=key)
    return tuple(chars)


def _zeta_rows(m: int) -> list:
    """The integer rows (Cyclotomic.nums) of zeta_m^j for j < m."""
    return [Cyclotomic.zeta(m, j).nums for j in range(m)]


def trivial_character(N: int = 1) -> DirichletCharacter:
    return enumerate_characters(N)[0]


@lru_cache(maxsize=None)
def gauss_sum(chi: DirichletCharacter) -> Cyclotomic:
    """W(chi) = sum_h chi(h) e^(2 pi i h / N), exact in Q(zeta_lcm(ord,N))."""
    N = chi.modulus
    if N == 1:
        return Cyclotomic.from_rational(1)
    m = lcm(chi.order, N)
    acc = Cyclotomic.zero(m)
    for h in range(N):
        v = chi.values[h]
        if v:
            acc = acc + v * Cyclotomic.zeta(m, h * (m // N))
    return acc


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
