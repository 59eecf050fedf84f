"""Complex-numeric evaluation: theta functions, Kronecker series, slashed
Eisenstein series and critical L-values.

Every evaluator works in complex double precision and returns a
(value, bound) pair where bound is a tail estimate: it covers truncation
only, not rounding.  Theta's rounding error has median 1.6e-15 |theta| at
the law points, and against 300-bit sums theta's error exceeds its bound in
63 of 117 such evaluations and eval_F's in 9 of 39 (by up to 3.4 times).

Theta is summed from its Jacobi triple-product series, whose terms fall like
|q|^(n^2/2): about 20 terms where the product needs 120 to 280 factors
(|q| near 0.8).  One table per tau (`_ThetaTable`) holds q, |q| and q^(1/8);
`theta`, `theta_prime0`, `eval_F` and every term of `eval_F_chi`'s
character sum read it, theta'(0) once per table.  A sum stops once the ratio
of consecutive terms is at most 1/2 and the next term is at most THETA_TOL
times the largest.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import embed_complex
from .dirichlet import DirichletCharacter, gauss_sum
from .series import QSeries

TWO_PI = 2 * math.pi
THETA_TOL = 1e-15  # theta series truncation, relative to the largest term
_NMAX = 20000  # no finite growth needs 9,000 theta terms below |q| = 0.92
QSERIES_GROWTH = 3.0  # q-series tails assume |a_n| <= C n^QSERIES_GROWTH


class ConvergenceError(ArithmeticError):
    """The requested tolerance is unreachable at this evaluation point."""


@dataclass
class NumericValue:
    value: complex
    bound: float


def pole_distance(w: complex, tau: complex, N: int) -> float:
    """Distance from w to the lattice 2 pi i ((1/N)Z + Z tau) (conservative)."""
    best = float("inf")
    y = tau.imag
    span = int(abs(w) / (TWO_PI * y)) + 2
    for n in range(-span, span + 1):
        base = w / (2j * math.pi) - n * tau
        r = round(base.real * N) / N
        best = min(best, abs(complex(base.real - r, base.imag)) * TWO_PI)
    return best


class _ThetaTable:
    """The u-independent part of theta at one tau: q, |q| and q^(1/8)."""

    def __init__(self, tau):
        tau = embed_complex(tau)
        self.q = cmath.exp(2 * 1j * math.pi * tau)
        self.absq = abs(self.q)
        self.q8 = cmath.exp(2 * 1j * math.pi * tau / 8)

    def _check_domain(self):
        if not self.absq < 0.92:  # a NaN |q| too
            raise ConvergenceError("Im(tau) too small for theta evaluation")

    def theta(self, u: complex) -> NumericValue:
        """theta(u); OverflowError where exp(u), exp(-u) or a term leaves the
        double range (cmath.exp raises for exp(u) itself).

        Term n is c_n - d_n, c_n = c_(n-1) (-q^n xi) and d_n = d_(n-1) (-q^n/xi)
        from c_0 = xi^(1/2), d_0 = xi^(-1/2), so no intermediate exceeds the
        terms.  m is max(|c_n|, |d_n|) and r = |q|^n max(|xi|, 1/|xi|) its
        ratio to the one before.
        """
        xi = cmath.exp(u)
        grow = max(abs(xi), 1.0 / abs(xi)) if xi else math.inf
        if grow == math.inf:
            raise OverflowError("exp(-u) leaves the double range")
        self._check_domain()
        q, absq = self.q, self.absq
        c = cmath.exp(u / 2)
        d = 1 / c
        out = c - d
        qn = -1.0  # -q^n
        aqn = 1.0  # |q|^n
        m = top = math.sqrt(grow)
        for n in range(1, _NMAX):
            qn = qn * q
            aqn *= absq
            r = aqn * grow
            m *= r
            if r <= 0.5 and not m > THETA_TOL * top:  # an overflowed m stops too
                break
            c = c * (qn * xi)
            d = d * (qn / xi)
            out = out + (c - d)
            if m > top:
                top = m
        else:  # a NaN growth
            raise ConvergenceError("theta tolerance unreachable at this point")
        out = self.q8 * out
        if not cmath.isfinite(out):
            raise OverflowError("theta product leaves the double range")
        # r falls from 1/2 on: the terms left out sum to under 2 (m + m/2 + ...)
        return NumericValue(out, abs(self.q8) * 4 * m)

    def theta_prime0(self) -> NumericValue:
        """theta'(0): term n is (2n+1) p_n, p_n = p_(n-1) (-q^n); m is its
        modulus and r = |q|^n (2n+1)/(2n-1) its ratio to the one before."""
        self._check_domain()
        q, absq = self.q, self.absq
        p = out = 1 + 0j
        qn = -1.0
        aqn = m = top = 1.0
        for n in range(1, _NMAX):
            qn = qn * q
            aqn *= absq
            r = aqn * (2 * n + 1) / (2 * n - 1)
            m *= r
            if r <= 0.5 and m <= THETA_TOL * top:
                break
            p = p * qn
            out = out + (2 * n + 1) * p
            if m > top:
                top = m
        return NumericValue(self.q8 * out, abs(self.q8) * 2 * m)


def theta(tau, u) -> NumericValue:
    """Jacobi theta via the triple-product series

    q^(1/8) sum_(n>=0) (-1)^n q^(n(n+1)/2) (xi^(n+1/2) - xi^(-(n+1/2))).
    """
    return _ThetaTable(tau).theta(embed_complex(u))


def theta_prime0(tau) -> NumericValue:
    """theta'(0) = q^(1/8) sum_(n>=0) (-1)^n (2n+1) q^(n(n+1)/2)."""
    return _ThetaTable(tau).theta_prime0()


def _theta_quotient(t0, tuv, tu, tv) -> NumericValue:
    """F = theta'(0) theta(u+v) / (theta(u) theta(v)) from its four thetas."""
    denom = tu.value * tv.value
    if abs(denom) == 0:
        raise ConvergenceError("theta denominator vanished (pole)")
    value = t0.value * tuv.value / denom
    # the relative errors of all four factors add (to first order)
    rel = (
        4e-15
        + t0.bound / max(abs(t0.value), 1e-300)
        + tuv.bound / max(abs(tuv.value), 1e-300)
        + tu.bound / max(abs(tu.value), 1e-300)
        + tv.bound / max(abs(tv.value), 1e-300)
    )
    return NumericValue(value, abs(value) * rel)


def eval_F(tau, u, v) -> NumericValue:
    """Untwisted Kronecker series via the theta quotient."""
    table = _ThetaTable(tau)
    u = embed_complex(u)
    v = embed_complex(v)
    t0 = table.theta_prime0()
    return _theta_quotient(t0, table.theta(u + v), table.theta(u), table.theta(v))


@lru_cache(maxsize=None)
def _character_sum_terms(chi: DirichletCharacter):
    """W(conj chi) and the pairs (conj(chi)(h), 2 pi i h/N) over the h with
    conj(chi)(h) != 0, embedded in C."""
    N = chi.modulus
    chibar = chi.conjugate()
    terms = tuple(
        (embed_complex(cv), 2 * 1j * math.pi * h / N)
        for h, cv in enumerate(chibar.values)
        if cv
    )
    return embed_complex(gauss_sum(chibar)), terms


def eval_F_chi(tau, u, v, chi: DirichletCharacter) -> NumericValue:
    """Twisted series by the character-sum average of shifted F values:

    (1 / 2 W(conj chi)) sum_h conj(chi)(h) [F(u + 2 pi i h/N, v) + F(u, v + 2 pi i h/N)].

    All terms share one theta table, so theta'(0), theta(u) and theta(v) are
    evaluated once; each shift s costs the four thetas that depend on it.
    """
    if chi.modulus == 1:
        return eval_F(tau, u, v)
    w, terms = _character_sum_terms(chi)
    table = _ThetaTable(tau)
    u = embed_complex(u)
    v = embed_complex(v)
    t0 = table.theta_prime0()
    tu = table.theta(u)
    tv = table.theta(v)
    acc = 0j
    bound = 0.0
    for c, shift in terms:
        us = u + shift
        vs = v + shift
        # u + s + v and u + (v + s) differ in the last bits: two evaluations
        f1 = _theta_quotient(t0, table.theta(us + v), table.theta(us), tv)
        f2 = _theta_quotient(t0, table.theta(u + vs), tu, table.theta(vs))
        acc = acc + c * (f1.value + f2.value)
        bound += f1.bound + f2.bound
    value = acc / (2 * w)
    return NumericValue(value, (bound + 1e-14 * abs(acc)) / (2 * abs(w)))


def eval_qseries(f: QSeries, tau) -> NumericValue:
    """Evaluate a q-expansion at tau with a coefficient-growth tail bound.

    QSERIES_GROWTH bounds |a_n| by C n^QSERIES_GROWTH with C read off the
    computed range.
    """
    tau = embed_complex(tau)
    q = cmath.exp(2 * 1j * math.pi * tau)
    absq = abs(q)
    if absq >= 0.95:
        raise ConvergenceError("Im(tau) too small for q-series evaluation")
    acc = 0j
    qn = 1 + 0j
    cmax = 0.0
    for n in range(f.prec):
        c = f.coeffs[n]
        if c != 0:
            cc = embed_complex(c)
            acc = acc + cc * qn
            cmax = max(cmax, abs(cc) / max(n, 1) ** QSERIES_GROWTH)
        qn = qn * q
    n0 = f.prec
    ratio = absq * (1 + 1.0 / n0) ** QSERIES_GROWTH
    tail = cmax * n0**QSERIES_GROWTH * absq**n0 / max(1 - ratio, 1e-9)
    return NumericValue(acc, tail)


def eval_slashed(f: QSeries, k: int, gamma, tau) -> NumericValue:
    """(f |_k gamma)(tau) = det(gamma)^(k/2) (c tau + d)^(-k) f(gamma tau)."""
    (a, b), (c, d) = gamma
    det = a * d - b * c
    if det <= 0:
        raise ValueError("gamma must have positive determinant")
    if k % 2:
        raise ValueError("even weight required")
    tau = embed_complex(tau)
    denom = c * tau + d
    gt = (a * tau + b) / denom
    if float(gt.imag) <= 0:
        raise ConvergenceError("gamma tau left the upper half plane")
    inner = eval_qseries(f, gt)
    factor = complex(det) ** (k // 2) * denom ** (-k)
    value = factor * inner.value
    return NumericValue(value, abs(factor) * inner.bound)


def atkin_lehner_matrix(M: int, N: int):
    """An integral W_M = [[M, b], [N, M d]] with determinant M, for M | N."""
    if N % M:
        raise ValueError("M must divide N")
    if M == 1:
        return ((1, 0), (0, 1))
    if M == N:
        return ((0, -1), (N, 0))
    rest = N // M
    if math.gcd(M, rest) != 1:
        raise ValueError("requires gcd(M, N/M) = 1 (square-free N)")
    d = pow(M, -1, rest)
    b = (M * d - 1) // rest
    return ((M, b), (N, M * d))


# ---------------------------------------------------------------------------
# Period integrals via incomplete gamma sums

def incomplete_gamma_int(n: int, x: float):
    """Gamma(n+1, x) = n! e^(-x) sum_{j<=n} x^j / j! for integer n >= 0."""
    if n < 0:
        raise ValueError("integer shape parameter must be >= 0")
    term = 1.0
    acc = 1.0
    for j in range(1, n + 1):
        term = term * x / j
        acc += term
    return math.factorial(n) * math.exp(-x) * acc


def _gamma_sum(coeffs, n: int, t0: float):
    """sum_m a_m Gamma(n+1, 2 pi m t0) / (2 pi m)^(n+1)."""
    acc = 0j
    for m in range(1, len(coeffs)):
        c = coeffs[m]
        if c == 0:
            continue
        x = TWO_PI * m * t0
        acc = acc + embed_complex(c) * incomplete_gamma_int(n, x) / (
            (TWO_PI * m) ** (n + 1)
        )
    return acc


def _tail_estimate(coeffs, n: int, t0: float, power: float) -> float:
    """Next-term estimate for the gamma sum, with coefficient growth m^power."""
    M = len(coeffs)
    cmax = 0.0
    for m in range(1, M):
        c = coeffs[m]
        if c != 0:
            cmax = max(cmax, abs(embed_complex(c)) / m**power)
    x = TWO_PI * M * t0
    term = cmax * M**power * incomplete_gamma_int(n, x) / (TWO_PI * M) ** (n + 1)
    return 3.0 * term


def _split_period(upper, reflected, k: int, n: int, t0: float, lam, scale: float) -> NumericValue:
    """int_0^inf g(it) t^n dt split at t0, where g has coefficients `upper` and
    the piece below t0 is lam i^k scale times the upper integral of the form
    with coefficients `reflected`, at n -> k - 2 - n."""
    power = (k - 1) / 2 + 0.6
    upper_sum = _gamma_sum(upper, n, t0)
    reflected_sum = _gamma_sum(reflected, k - 2 - n, t0)
    lower = lam * 1j**k * scale * reflected_sum
    bound = _tail_estimate(upper, n, t0, power) + abs(scale) * _tail_estimate(
        reflected, k - 2 - n, t0, power
    )
    # d tau = i dt contributes i^(n+1) relative to the real t-integral
    return NumericValue(1j ** (n + 1) * (upper_sum + lower), bound)


def cusp_period(f: QSeries, k: int, N: int, eps_N: int, n: int) -> NumericValue:
    """r_n(f) = int_0^inf f(it) t^n dt for a W_N-eigenform with sign eps_N.

    Split at t0 = 1/sqrt(N); the lower piece maps to an upper piece through
    f |_k W_N = eps_N f.
    """
    if f.coeffs[0] != 0:
        raise ValueError("cusp periods need a vanishing constant term")
    if n < 0 or n > k - 2:
        raise ValueError("critical range is 0 <= n <= k-2")
    if eps_N not in (1, -1):
        raise ValueError("eigenvalue must be +-1")
    scale = float(N) ** (k // 2 - n - 1)
    return _split_period(f.coeffs, f.coeffs, k, n, 1 / math.sqrt(N), eps_N, scale)


def twisted_cusp_period(
    f: QSeries, k: int, N: int, chi: DirichletCharacter, n: int
) -> NumericValue:
    """r_n(f_chi) for the conductor-N twist of a level-N form (the twist has
    level N^2); uses f_chi |_k W_{N^2} = chi(-1) (W(chi)/W(conj chi)) f_{conj chi}
    with the split point t0 = 1/N.
    """
    if n < 0 or n > k - 2:
        raise ValueError("critical range is 0 <= n <= k-2")
    chibar = chi.conjugate()
    twisted = [chi(m) * f.coeffs[m] if f.coeffs[m] != 0 else 0 for m in range(f.prec)]
    twisted_bar = [chibar(m) * f.coeffs[m] if f.coeffs[m] != 0 else 0 for m in range(f.prec)]
    w = embed_complex(gauss_sum(chi))
    wbar = embed_complex(gauss_sum(chibar))
    lam = (1 if chi.is_even() else -1) * w / wbar
    scale = float(N) ** (k - 2 * n - 2)
    return _split_period(twisted, twisted_bar, k, n, 1.0 / N, lam, scale)
