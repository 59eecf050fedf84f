"""Twisted Kronecker series as exact jets, Rankin-Cohen brackets, and the
product generating function in (X, Y, T).

All 2*pi*i powers are absorbed into the theta = q d/dq convention, so every
stored q-series has coefficients in Q(chi).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .dirichlet import DirichletCharacter, twisted_bernoulli
from .modforms import eisenstein_g_chi, eisenstein_h_chi
from .ntheory import divisors
from .series import (
    BiJet,
    QSeries,
    TriGen,
    bijet_substitute,
    qs_add,
    qs_mul,
    qs_scale,
    theta_op,
    trigen_mul,
)


@dataclass
class KroneckerJet:
    """BiJet of the twisted Kronecker series with its construction route."""

    jet: BiJet
    char: DirichletCharacter
    route: str  # "laurent" | "fourier"


@dataclass
class GCoefficient:
    """Coefficient g_{k,m,chi} of (u^(k-1)+v^(k-1)) (uv)^m in the jet."""

    k: int
    m: int
    value: QSeries | object  # QSeries for m >= 0, scalar chi(0) at (k,m)=(2,-1)


_E_CACHE: dict = {}


def eisenstein_combo(k: int, chi: DirichletCharacter, prec: int) -> QSeries:
    """G_{k, conj(chi)} + H_{k, chi}, the combination in the Laurent expansion."""
    ck = (k, chi.key, prec)
    if ck not in _E_CACHE:
        g = eisenstein_g_chi(k, chi.conjugate(), prec).series
        h = eisenstein_h_chi(k, chi, prec).series
        _E_CACHE[ck] = qs_add(g, h)
    return _E_CACHE[ck]


@lru_cache(maxsize=None)
def g_km(k: int, m: int, chi: DirichletCharacter, prec: int) -> QSeries:
    """g_{k,m,chi} = -theta^m (G_{k,conj(chi)} + H_{k,chi}) / (m! (m+k-1)!) for m >= 0."""
    combo = eisenstein_combo(k, chi, prec)
    scale = Fraction(-1, factorial(m) * factorial(m + k - 1))
    return qs_scale(theta_op(combo, m), scale)


def g_coefficient_single(k: int, m: int, chi: DirichletCharacter, prec: int) -> GCoefficient:
    if k == 2 and m == -1:
        return GCoefficient(k, m, chi(0))
    if k >= 2 and k % 2 == 0 and m >= 0:
        return GCoefficient(k, m, g_km(k, m, chi, prec))
    return GCoefficient(k, m, QSeries.zero(prec))


# ---------------------------------------------------------------------------
# Jet constructions

def kron_laurent(chi: DirichletCharacter, prec: int, degree: int) -> KroneckerJet:
    """Laurent-expansion route: entries from theta-derivatives of G + H."""
    _require_even_primitive(chi)
    entries = {}
    for t in range(1, degree + 1, 2):
        for r in range(t + 1):
            s = t - r
            kk = abs(r - s) + 1
            combo = eisenstein_combo(kk, chi, prec)
            series = theta_op(combo, min(r, s))
            scale = Fraction(-1, factorial(r) * factorial(s))
            entries[(r, s)] = qs_scale(series, scale)
    c0 = chi.scalar(0)
    jet = BiJet(degree, prec, entries, polar_u=c0, polar_v=c0)
    return KroneckerJet(jet, chi, "laurent")


def kron_fourier(chi: DirichletCharacter, prec: int, degree: int) -> KroneckerJet:
    """Fourier-expansion route: twisted-Bernoulli q^0 jet plus sinh divisor sums.

    The finite character sum is read with inclusive endpoints, which doubles
    the Bernoulli generating jet at N = 1 (and adds nothing for N > 1 where
    chi(N) = chi(0) = 0).
    """
    _require_even_primitive(chi)
    N = chi.modulus
    double = 2 if N == 1 else 1
    cells: dict[tuple[int, int], list] = {}
    for t in range(1, degree + 1, 2):
        for r in range(t + 1):
            cells[(r, t - r)] = [0] * prec

    # q^0: (1/2) * (inclusive endpoint factor) * B_{r+1,chi}/(r+1)! on the axes
    for r in range(1, degree + 1, 2):
        b = twisted_bernoulli(r + 1, chi)
        if b != 0:
            val = b * Fraction(double, 2 * factorial(r + 1))
            cells[(r, 0)][0] = val
            cells[(0, r)][0] = val

    # q^n: - sum_{d|n} (chi(d) + chi(n/d)) sinh(d u + (n/d) v)
    for n in range(1, prec):
        for d in divisors(n):
            e = n // d
            w = chi.scalar(d) + chi.scalar(e)
            if w == 0:
                continue
            for (r, s), col in cells.items():
                col[n] = col[n] - w * Fraction(d**r * e**s, factorial(r) * factorial(s))

    entries = {key: QSeries(prec, col) for key, col in cells.items()}
    c0 = chi.scalar(0)
    jet = BiJet(degree, prec, entries, polar_u=c0, polar_v=c0)
    return KroneckerJet(jet, chi, "fourier")


def _require_even_primitive(chi: DirichletCharacter):
    if not chi.is_even():
        raise ValueError("twisted Kronecker series needs an even character")
    if not chi.is_primitive():
        raise ValueError("twisted Kronecker series needs a primitive character")


# ---------------------------------------------------------------------------
# Rankin-Cohen brackets

def rc_bracket(f: QSeries, k1: int, g: QSeries, k2: int, m: int) -> QSeries:
    """Traditional bracket on q-expansions in the theta convention:

    [f,g]_m = sum_{m1+m2=m} (-1)^m2 C(k1+m-1, m2) C(k2+m-1, m1) theta^m1 f theta^m2 g.
    """
    out = None
    for m1 in range(m + 1):
        m2 = m - m1
        c = (-1) ** m2 * comb(k1 + m - 1, m2) * comb(k2 + m - 1, m1)
        term = qs_scale(qs_mul(theta_op(f, m1), theta_op(g, m2)), c)
        out = term if out is None else qs_add(out, term)
    return out


def rc_bracket_modified(
    f: QSeries, k1: int, g: QSeries, k2: int, m: int, chi: DirichletCharacter
) -> QSeries:
    """Modified bracket: adds the chi(0)-weighted quasimodular corrections

        chi(0) [ delta_{k2,2} theta^(m+1) f / (m+k1)
                 + (-1)^m delta_{k1,2} theta^(m+1) g / (m+k2) ].

    The prefactor follows the product expansion of the twisted Kronecker
    series (the printed normalization with an extra 1/2 does not reproduce
    the weight-4 identity 4 G_2^2 + 2 theta G_2 = (5/3) G_4).
    """
    out = rc_bracket(f, k1, g, k2, m)
    c0 = chi(0)
    if c0 == 0:
        return out
    if k2 == 2:
        out = qs_add(out, qs_scale(theta_op(f, m + 1), c0 * Fraction(1, m + k1)))
    if k1 == 2:
        out = qs_add(
            out, qs_scale(theta_op(g, m + 1), c0 * Fraction((-1) ** m, m + k2))
        )
    return out


class RouteMismatchError(AssertionError):
    """The bracket and convolution routes disagree; a correctness failure."""


def g_coefficient(
    k1: int, k2: int, m: int, chi: DirichletCharacter, prec: int
) -> QSeries:
    """g_{k1,k2,m,chi} computed two ways, with exact equality enforced.

    Bracket route: modified Rankin-Cohen bracket of the two Eisenstein
    combinations over (k1+m-1)!(k2+m-1)!.  Convolution route:
    sum_{m1+m2=m, mi >= -1} (-1)^m2 g_{k1,m1,chi} g_{k2,m2,conj(chi)}.
    """
    if k1 % 2 or k2 % 2 or k1 < 2 or k2 < 2 or m < 0:
        raise ValueError("need even k1, k2 >= 2 and m >= 0")
    chibar = chi.conjugate()
    conv = _conv_g(k1, k2, m, chi, prec)

    # bracket route
    f = eisenstein_combo(k1, chi, prec)
    g = eisenstein_combo(k2, chibar, prec)
    bracket = rc_bracket_modified(f, k1, g, k2, m, chi)
    bracket = qs_scale(
        bracket, Fraction(1, factorial(k1 + m - 1) * factorial(k2 + m - 1))
    )

    if not bracket == conv:
        raise RouteMismatchError(
            f"g_({k1},{k2},{m}) bracket and convolution routes disagree"
        )
    return conv


# ---------------------------------------------------------------------------
# The product generating function B_{N,chi}

def _poly_terms(k1: int, k2: int, m: int) -> list[tuple[int, int, int]]:
    """Monomials of (X^(k1-1)+Y^(k1-1))(1-(XY)^(k2-1))(XY)^m as (a, b, sign)."""
    out = []
    for (a, b) in ((k1 - 1 + m, m), (m, k1 - 1 + m)):
        out.append((a, b, 1))
        out.append((a + k2 - 1, b + k2 - 1, -1))
    return out


def product_B(
    chi: DirichletCharacter,
    kmax: int,
    prec: int,
    route: str = "closed",
    degree: int | None = None,
) -> TriGen:
    """B_{N,chi}(X,Y,tau,T) = F^chi(XT, YT) F^conj(chi)(T, -XYT).

    route="closed" assembles weight slices from the g_{k1,k2,m,chi}
    convolution coefficients; route="jets" substitutes the raw Fourier jets
    and multiplies, which is the independent cross-check.
    """
    _require_even_primitive(chi)
    if route == "jets":
        degree = degree if degree is not None else kmax
        F1 = kron_fourier(chi, prec, degree)
        F2 = kron_fourier(chi.conjugate(), prec, degree)
        A = bijet_substitute(F1.jet, "XT_YT")
        B = bijet_substitute(F2.jet, "T_-XYT")
        return trigen_mul(A, B, kmax)
    if route != "closed":
        raise ValueError(f"unknown route {route!r}")

    chibar = chi.conjugate()
    c0 = chi.scalar(0)
    weights: dict[int, dict] = {}
    for k in range(2, kmax + 1, 2):
        row: dict = {}

        def add(key, series):
            row[key] = qs_add(row[key], series) if key in row else series

        # m >= 0 part
        for k1 in range(2, k - 1, 2):
            for k2 in range(2, k - k1 + 1, 2):
                m = (k - k1 - k2) // 2
                if k1 + k2 + 2 * m != k:
                    continue
                coeff = _conv_g(k1, k2, m, chi, prec)
                if coeff.is_zero():
                    continue
                for a, b, sign in _poly_terms(k1, k2, m):
                    add((a, b), qs_scale(coeff, sign) if sign < 0 else coeff)

        # m = -1 cross terms (only when chi(0) != 0, i.e. N = 1)
        if c0 != 0:
            gk_bar = g_km(k, 0, chibar, prec)
            gk = g_km(k, 0, chi, prec)
            # chi(0) g_{k,0,conj}: (X^-1 + Y^-1)(1 - (XY)^(k-1))
            for key, sign in (
                ((-1, 0), 1),
                ((0, -1), 1),
                ((k - 2, k - 1), -1),
                ((k - 1, k - 2), -1),
            ):
                add(key, qs_scale(gk_bar, sign * c0))
            # chi(0) g_{k,0,chi}: (X^(k-1) + Y^(k-1))(1 - (XY)^(-1))
            for key, sign in (
                ((k - 1, 0), 1),
                ((0, k - 1), 1),
                ((k - 2, -1), -1),
                ((-1, k - 2), -1),
            ):
                add(key, qs_scale(gk, sign * c0))
        weights[k] = {key: q for key, q in row.items() if not q.is_zero()}

    principal = None
    if c0 != 0:
        c = c0 * c0
        principal = {(0, -1): c, (-1, 0): c, (-1, -2): -c, (-2, -1): -c}
    return TriGen(kmax, prec, weights, principal)


_CONV_CACHE: dict = {}


def _conv_g(k1: int, k2: int, m: int, chi: DirichletCharacter, prec: int) -> QSeries:
    ck = (k1, k2, m, chi.key, prec)
    if ck not in _CONV_CACHE:
        chibar = chi.conjugate()
        acc = None
        for m1 in range(-1, m + 2):
            m2 = m - m1
            if m2 < -1:
                continue
            sign = -1 if m2 % 2 else 1
            c0 = chi.scalar(0)
            if m1 == -1:
                if k1 != 2 or c0 == 0:
                    continue
                term = qs_scale(g_km(k2, m2, chibar, prec), sign * c0)
            elif m2 == -1:
                if k2 != 2 or c0 == 0:
                    continue
                term = qs_scale(g_km(k1, m1, chi, prec), -c0)
            else:
                term = qs_scale(
                    qs_mul(g_km(k1, m1, chi, prec), g_km(k2, m2, chibar, prec)),
                    sign,
                )
            acc = term if acc is None else qs_add(acc, term)
        _CONV_CACHE[ck] = acc if acc is not None else QSeries.zero(prec)
    return _CONV_CACHE[ck]
