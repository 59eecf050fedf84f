"""Complex-numeric evaluation: theta functions, Kronecker series, slashed
Eisenstein series and critical L-values.

Every evaluator returns a (value, bound) pair where bound is a
rigorous-style tail estimate.  The default context is double precision;
`Context.bigfloat()` switches to 128-bit mpmath arithmetic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import Cyclotomic, embed_complex
from .dirichlet import DirichletCharacter, gauss_sum
from .series import QSeries

TWO_PI = 2 * math.pi


class ConvergenceError(ArithmeticError):
    """The requested tolerance is unreachable at this evaluation point."""


class Context:
    """Arithmetic context: plain complex doubles or mpmath big floats."""

    def __init__(self, mode: str = "double", prec_bits: int = 128):
        self.mode = mode
        if mode == "bigfloat":
            import mpmath

            self.mp = mpmath
            self.mp.mp.prec = prec_bits
        elif mode != "double":
            raise ValueError(f"unknown context mode {mode!r}")

    @staticmethod
    def double() -> "Context":
        return Context("double")

    @staticmethod
    def bigfloat(prec_bits: int = 128) -> "Context":
        return Context("bigfloat", prec_bits)

    def to_c(self, x):
        if isinstance(x, Cyclotomic):
            x = embed_complex(x)
        elif isinstance(x, Fraction):
            x = complex(x)
        if self.mode == "double":
            return complex(x)
        return self.mp.mpc(x)

    def exp(self, z):
        return cmath.exp(z) if self.mode == "double" else self.mp.exp(z)

    def log(self, z):
        return cmath.log(z) if self.mode == "double" else self.mp.log(z)

    def sinh(self, z):
        return cmath.sinh(z) if self.mode == "double" else self.mp.sinh(z)

    def abs(self, z) -> float:
        return abs(z) if self.mode == "double" else float(self.mp.fabs(z))

    @property
    def pi(self):
        return math.pi if self.mode == "double" else self.mp.pi

    @property
    def j(self):
        return 1j if self.mode == "double" else self.mp.mpc(0, 1)


DOUBLE = Context.double()


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


def _theta_nmax(absq: float, grow: float, tol: float = 1e-15) -> int:
    if absq >= 0.92:
        raise ConvergenceError("Im(tau) too small for theta evaluation")
    n = 1
    while absq**n * max(grow, 1.0) > tol:
        n += 1
        if n > 20000:
            raise ConvergenceError("theta tolerance unreachable at this point")
    return n + 3


def theta(tau, u, ctx: Context = DOUBLE) -> NumericValue:
    """Jacobi theta via the product formula

    q^(1/8) (xi^(1/2) - xi^(-1/2)) prod (1-q^n)(1-q^n xi)(1-q^n/xi).
    """
    tau = ctx.to_c(tau)
    u = ctx.to_c(u)
    q = ctx.exp(2 * ctx.j * ctx.pi * tau)
    absq = ctx.abs(q)
    xi = ctx.exp(u)
    grow = max(ctx.abs(xi), 1.0 / ctx.abs(xi))
    nmax = _theta_nmax(absq, grow)
    half = ctx.exp(u / 2)
    out = ctx.exp(2 * ctx.j * ctx.pi * tau / 8) * (half - 1 / half)
    qn = q
    for _ in range(nmax):
        out = out * (1 - qn) * (1 - qn * xi) * (1 - qn / xi)
        qn = qn * q
    return NumericValue(out, ctx.abs(out) * absq**nmax * grow * 4)


def theta_prime0(tau, ctx: Context = DOUBLE) -> NumericValue:
    """theta'(0) = q^(1/8) prod (1-q^n)^3."""
    tau = ctx.to_c(tau)
    q = ctx.exp(2 * ctx.j * ctx.pi * tau)
    absq = ctx.abs(q)
    nmax = _theta_nmax(absq, 1.0)
    out = ctx.exp(2 * ctx.j * ctx.pi * tau / 8)
    qn = q
    for _ in range(nmax):
        out = out * (1 - qn) ** 3
        qn = qn * q
    return NumericValue(out, ctx.abs(out) * absq**nmax * 6)


def eval_F(tau, u, v, ctx: Context = DOUBLE) -> NumericValue:
    """Untwisted Kronecker series via the theta quotient."""
    t0 = theta_prime0(tau, ctx)
    tuv = theta(tau, ctx.to_c(u) + ctx.to_c(v), ctx)
    tu = theta(tau, u, ctx)
    tv = theta(tau, v, ctx)
    denom = tu.value * tv.value
    if ctx.abs(denom) == 0:
        raise ConvergenceError("theta denominator vanished (pole)")
    value = t0.value * tuv.value / denom
    rel = 4e-15 + t0.bound / max(ctx.abs(t0.value), 1e-300) + tuv.bound / max(
        ctx.abs(tuv.value), 1e-300
    )
    return NumericValue(value, ctx.abs(value) * rel)


def eval_F_chi(tau, u, v, chi: DirichletCharacter, ctx: Context = DOUBLE) -> NumericValue:
    """Twisted series by the character-sum average of shifted F values:

    (1 / 2 W(conj chi)) sum_h conj(chi)(h) [F(u + 2 pi i h/N, v) + F(u, v + 2 pi i h/N)].
    """
    N = chi.modulus
    if N == 1:
        return eval_F(tau, u, v, ctx)
    chibar = chi.conjugate()
    w = ctx.to_c(gauss_sum(chibar))
    acc = ctx.to_c(0)
    bound = 0.0
    u = ctx.to_c(u)
    v = ctx.to_c(v)
    for h in range(N):
        cv = chibar.values[h]
        if not cv:
            continue
        c = ctx.to_c(cv)
        shift = 2 * ctx.j * ctx.pi * h / N
        f1 = eval_F(tau, u + shift, v, ctx)
        f2 = eval_F(tau, u, v + shift, ctx)
        acc = acc + c * (f1.value + f2.value)
        bound += f1.bound + f2.bound
    value = acc / (2 * w)
    return NumericValue(value, (bound + 1e-14 * ctx.abs(acc)) / (2 * ctx.abs(w)))


def eval_qseries(f: QSeries, tau, ctx: Context = DOUBLE, growth: float = 3.0) -> NumericValue:
    """Evaluate a q-expansion at tau with a coefficient-growth tail bound.

    growth bounds |a_n| by C n^growth with C read off the computed range.
    """
    tau = ctx.to_c(tau)
    q = ctx.exp(2 * ctx.j * ctx.pi * tau)
    absq = ctx.abs(q)
    if absq >= 0.95:
        raise ConvergenceError("Im(tau) too small for q-series evaluation")
    acc = ctx.to_c(0)
    qn = ctx.to_c(1)
    cmax = 0.0
    for n in range(f.prec):
        c = f.coeffs[n]
        if c != 0:
            cc = ctx.to_c(c)
            acc = acc + cc * qn
            cmax = max(cmax, ctx.abs(cc) / max(n, 1) ** growth)
        qn = qn * q
    n0 = f.prec
    ratio = absq * (1 + 1.0 / n0) ** growth
    tail = cmax * n0**growth * absq**n0 / max(1 - ratio, 1e-9)
    return NumericValue(acc, tail)


def eval_slashed(
    f: QSeries, k: int, gamma, tau, ctx: Context = DOUBLE, growth: float = 3.0
) -> NumericValue:
    """(f |_k gamma)(tau) = det(gamma)^(k/2) (c tau + d)^(-k) f(gamma tau)."""
    (a, b), (c, d) = gamma
    det = a * d - b * c
    if det <= 0:
        raise ValueError("gamma must have positive determinant")
    if k % 2:
        raise ValueError("even weight required")
    tau = ctx.to_c(tau)
    denom = c * tau + d
    gt = (a * tau + b) / denom
    if float(gt.imag) <= 0:
        raise ConvergenceError("gamma tau left the upper half plane")
    inner = eval_qseries(f, gt, ctx, growth)
    factor = ctx.to_c(det) ** (k // 2) * denom ** (-k)
    value = factor * inner.value
    return NumericValue(value, ctx.abs(factor) * inner.bound)


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

def incomplete_gamma_int(n: int, x: float, ctx: Context = DOUBLE):
    """Gamma(n+1, x) = n! e^(-x) sum_{j<=n} x^j / j! for integer n >= 0."""
    if n < 0:
        raise ValueError("integer shape parameter must be >= 0")
    if ctx.mode == "bigfloat":
        x = ctx.mp.mpf(x)
        term = ctx.mp.mpf(1)
        acc = term
        for j in range(1, n + 1):
            term = term * x / j
            acc += term
        return ctx.mp.factorial(n) * ctx.mp.exp(-x) * acc
    term = 1.0
    acc = 1.0
    for j in range(1, n + 1):
        term = term * x / j
        acc += term
    return math.factorial(n) * math.exp(-x) * acc


def _coeff_complex(c) -> complex:
    if isinstance(c, (int, float)):
        return complex(c)
    if isinstance(c, complex):
        return c
    return embed_complex(c)


def _gamma_sum(coeffs, n: int, t0: float, ctx: Context):
    """sum_m a_m Gamma(n+1, 2 pi m t0) / (2 pi m)^(n+1)."""
    acc = ctx.to_c(0)
    for m in range(1, len(coeffs)):
        c = coeffs[m]
        if c == 0:
            continue
        x = TWO_PI * m * t0
        acc = acc + ctx.to_c(_coeff_complex(c)) * incomplete_gamma_int(n, x, ctx) / (
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
            cmax = max(cmax, abs(_coeff_complex(c)) / m**power)
    x = TWO_PI * M * t0
    term = cmax * M**power * incomplete_gamma_int(n, x) / (TWO_PI * M) ** (n + 1)
    return 3.0 * term


def cusp_period(
    f: QSeries, k: int, N: int, eps_N: int, n: int, ctx: Context = DOUBLE
) -> NumericValue:
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
    t0 = 1 / math.sqrt(N)
    power = (k - 1) / 2 + 0.6
    upper = _gamma_sum(f.coeffs, n, t0, ctx)
    reflected = _gamma_sum(f.coeffs, k - 2 - n, t0, ctx)
    scale = float(N) ** (k // 2 - n - 1)
    lower = eps_N * ctx.j**k * scale * reflected
    bound = _tail_estimate(f.coeffs, n, t0, power) + abs(scale) * _tail_estimate(
        f.coeffs, k - 2 - n, t0, power
    )
    # d tau = i dt contributes i^(n+1) relative to the real t-integral
    return NumericValue(ctx.j ** (n + 1) * (upper + lower), bound)


def twisted_cusp_period(
    f: QSeries, k: int, N: int, chi: DirichletCharacter, n: int, ctx: Context = DOUBLE
) -> NumericValue:
    """r_n(f_chi) for the conductor-N twist of a level-N form (the twist has
    level N^2); uses f_chi |_k W_{N^2} = chi(-1) (W(chi)/W(conj chi)) f_{conj chi}
    with the split point t0 = 1/N.
    """
    if n < 0 or n > k - 2:
        raise ValueError("critical range is 0 <= n <= k-2")
    twisted = [chi(m) * f.coeffs[m] if f.coeffs[m] != 0 else 0 for m in range(f.prec)]
    twisted_bar = [
        chi.conjugate()(m) * f.coeffs[m] if f.coeffs[m] != 0 else 0
        for m in range(f.prec)
    ]
    t0 = 1.0 / N
    power = (k - 1) / 2 + 0.6
    upper = _gamma_sum(twisted, n, t0, ctx)
    reflected = _gamma_sum(twisted_bar, k - 2 - n, t0, ctx)
    w = embed_complex(gauss_sum(chi))
    wbar = embed_complex(gauss_sum(chi.conjugate()))
    lam = (1 if chi.is_even() else -1) * w / wbar
    scale = float(N) ** (k - 2 * n - 2)
    lower = ctx.to_c(lam) * ctx.j**k * scale * reflected
    bound = _tail_estimate(twisted, n, t0, power) + abs(scale) * _tail_estimate(
        twisted_bar, k - 2 - n, t0, power
    )
    return NumericValue(ctx.j ** (n + 1) * (upper + lower), bound)
