"""Twisted Kronecker series as exact jets, Rankin-Cohen brackets, and the
product generating function in (X, Y, T).

All 2*pi*i powers are absorbed into the theta = q d/dq convention, so every
stored q-series has coefficients in Q(chi).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .dirichlet import DirichletCharacter, twisted_bernoulli
from .modforms import eisenstein_g_chi, eisenstein_h_chi, slice_monomials
from .series import (
    BiJet,
    QSeries,
    TriGen,
    bijet_substitute,
    divisor_sum,
    orbit_sums,
    qs_add,
    qs_conj,
    qs_scale,
    qs_sum,
    qs_sums,
    theta_op,
    trigen_mul,
)


@lru_cache(maxsize=None)
def eisenstein_combo(k: int, chi: DirichletCharacter, prec: int) -> QSeries:
    """G_{k, conj(chi)} + H_{k, chi}, the combination in the Laurent expansion.

    At N > 1 it is one divisor sum, -B_{k,chi}/2k + sum_{de=n} chi(d)
    (d^(k-1) + e^(k-1)) q^n: its two pieces read chi's one exponent table,
    so they are summed in one pass.  At N = 1, where H_k = G_k, it is the
    sum of the cached G_k with itself.  A parity-violating pair gives the
    zero series.

    Its divisor sums and twisted Bernoulli constants are rational
    combinations of values of chi, so the combination for conj(chi) is
    sigma of this one, sigma: zeta_m -> zeta_m^(-1).  Of a non-real pair
    {chi, conj(chi)} only the member with the smaller key is built; the
    other is its qs_conj."""
    chibar = chi.conjugate()
    if chibar.key < chi.key:
        return qs_conj(eisenstein_combo(k, chibar, prec))
    if chi.modulus == 1:
        return qs_add(eisenstein_g_chi(k, chibar, prec), eisenstein_h_chi(k, chi, prec))
    if chi.is_even() != (k % 2 == 0):
        return QSeries.zero(prec)
    t = chi.exponents
    constant = Fraction(-1, 2 * k) * twisted_bernoulli(k, chi)
    return divisor_sum(prec, chi.order, t, 1, [(k - 1, 0), (0, k - 1)], constant)


@lru_cache(maxsize=None)
def g_km(k: int, m: int, chi: DirichletCharacter, prec: int) -> QSeries:
    """g_{k,m,chi} = -theta^m (G_{k,conj(chi)} + H_{k,chi}) / (m! (m+k-1)!) for m >= 0."""
    combo = eisenstein_combo(k, chi, prec)
    scale = Fraction(-1, factorial(m) * factorial(m + k - 1))
    return qs_scale(theta_op(combo, m), scale)


# ---------------------------------------------------------------------------
# Jet constructions

def kron_laurent(chi: DirichletCharacter, prec: int, degree: int) -> BiJet:
    """Laurent-expansion route: entry (r, s) is g_{|r-s|+1, min(r,s), chi},
    that is -theta^min(r,s) (G_{|r-s|+1, conj(chi)} + H_{|r-s|+1, chi}) / (r! s!)."""
    _require_even_primitive(chi)
    entries = {
        (r, t - r): g_km(abs(2 * r - t) + 1, min(r, t - r), chi, prec)
        for t in range(1, degree + 1, 2)
        for r in range(t + 1)
    }
    return BiJet(degree, prec, entries, chi.scalar(0))


def kron_fourier(chi: DirichletCharacter, prec: int, degree: int) -> BiJet:
    """Fourier-expansion route: twisted-Bernoulli q^0 jet plus sinh divisor sums.

    Entry (r, s) is -sum_{de=n} (chi(d) + chi(e)) d^r e^s / (r! s!) at q^n.
    The finite character sum is read with inclusive endpoints, which doubles
    the Bernoulli generating jet at N = 1 (and adds nothing for N > 1 where
    chi(N) = chi(0) = 0).  The entry is symmetric in (r, s), so it is built
    once for r <= s and entry (s, r) is the same object.
    """
    _require_even_primitive(chi)
    double = 2 if chi.modulus == 1 else 1
    t = chi.exponents
    entries = {}
    for deg in range(1, degree + 1, 2):
        # q^0 on the axes rs = 0: (1/2) (inclusive endpoint factor) B_{deg+1,chi}/(deg+1)!
        axis = twisted_bernoulli(deg + 1, chi) * Fraction(double, 2 * factorial(deg + 1))
        for r in range(deg + 1):
            s = deg - r
            if r > s:
                entries[(r, s)] = entries[(s, r)]
                continue
            c = Fraction(-1, factorial(r) * factorial(s))
            head = axis if r * s == 0 else 0
            entries[(r, s)] = divisor_sum(prec, chi.order, t, c, [(r, s), (s, r)], head)
    return BiJet(degree, prec, entries, chi.scalar(0))


def conjugate_jet(F: BiJet) -> BiJet:
    """sigma(F), sigma: zeta_m -> zeta_m^(-1) on every coefficient.

    conjugate_jet(kron_fourier(chi)) is kron_fourier(conj(chi)): each entry
    is a rational combination of values of chi (twisted Bernoulli numbers and
    divisor sums), and the polar value chi(0) is rational.  Each distinct
    entry is conjugated once, so entries that are one object in F are one
    object in sigma(F).
    """
    conj: dict = {}  # id(f) -> sigma(f); F holds every f for the whole call
    entries = {}
    for key, f in F.entries.items():
        if id(f) not in conj:
            conj[id(f)] = qs_conj(f)
        entries[key] = conj[id(f)]
    return BiJet(F.degree, F.prec, entries, F.polar)


def _require_even_primitive(chi: DirichletCharacter):
    if not chi.is_even():
        raise ValueError("twisted Kronecker series needs an even character")
    if not chi.is_primitive():
        raise ValueError("twisted Kronecker series needs a primitive character")


# ---------------------------------------------------------------------------
# Rankin-Cohen brackets

def rc_bracket_modified(
    f: QSeries, k1: int, g: QSeries, k2: int, m: int, chi: DirichletCharacter
) -> QSeries:
    """Modified bracket: the traditional bracket in the theta convention,

        [f,g]_m = sum_{m1+m2=m} (-1)^m2 C(k1+m-1, m2) C(k2+m-1, m1) theta^m1 f theta^m2 g,

    plus the chi(0)-weighted quasimodular corrections

        chi(0) [ delta_{k2,2} theta^(m+1) f / (m+k1)
                 + (-1)^m delta_{k1,2} theta^(m+1) g / (m+k2) ].

    The prefactor follows the product expansion of the twisted Kronecker
    series (the printed normalization with an extra 1/2 does not reproduce
    the weight-4 identity 4 G_2^2 + 2 theta G_2 = (5/3) G_4).
    """
    terms = []
    for m1 in range(m + 1):
        m2 = m - m1
        c = (-1) ** m2 * comb(k1 + m - 1, m2) * comb(k2 + m - 1, m1)
        terms.append((c, theta_op(f, m1), theta_op(g, m2)))
    c0 = chi(0)
    if c0 != 0 and k2 == 2:
        terms.append((c0 * Fraction(1, m + k1), theta_op(f, m + 1), None))
    if c0 != 0 and k1 == 2:
        terms.append((c0 * Fraction((-1) ** m, m + k2), theta_op(g, m + 1), None))
    return qs_sum(terms)


def g_coefficient(
    k1: int, k2: int, m: int, chi: DirichletCharacter, prec: int
) -> QSeries:
    """g_{k1,k2,m,chi} by the bracket route: the modified Rankin-Cohen bracket
    of the two Eisenstein combinations over (k1+m-1)!(k2+m-1)!.  conv_g is
    the convolution route; checks.suite_brackets compares the two.
    """
    if k1 % 2 or k2 % 2 or k1 < 2 or k2 < 2 or m < 0:
        raise ValueError("need even k1, k2 >= 2 and m >= 0")
    f = eisenstein_combo(k1, chi, prec)
    g = eisenstein_combo(k2, chi.conjugate(), prec)
    bracket = rc_bracket_modified(f, k1, g, k2, m, chi)
    return qs_scale(bracket, Fraction(1, factorial(k1 + m - 1) * factorial(k2 + m - 1)))


# ---------------------------------------------------------------------------
# The product generating function B_{N,chi}

def product_B(
    chi: DirichletCharacter,
    kmax: int,
    prec: int,
    route: str = "closed",
) -> TriGen:
    """B_{N,chi}(X,Y,tau,T) = F^chi(XT, YT) F^conj(chi)(T, -XYT).

    route="closed" assembles weight slices from the g_{k1,k2,m,chi}
    convolution coefficients, one sum per X <-> Y orbit of monomials
    (series.orbit_sums): F^chi(u, v) = F^chi(v, u) and the second factor
    depends on XY only, so every slice is symmetric.  route="jets"
    substitutes the raw Fourier jet F^chi and its Galois conjugate
    F^conj(chi) (conjugate_jet; F^chi itself for a real character) and
    multiplies them out (trigen_mul), which is the independent cross-check:
    its orbits are found by comparing the monomials' own products, with
    nothing borrowed from the closed route.  Both routes build one member
    of each Galois-conjugate pair: the closed route's conj(chi) combinations
    (eisenstein_combo) and its k1 > k2 coefficients (conv_g) are read
    through sigma: zeta_m -> zeta_m^(-1) as well.
    Both routes give a row for every even weight 2..kmax.
    """
    _require_even_primitive(chi)
    if route == "jets":
        F1 = kron_fourier(chi, prec, kmax)
        F2 = F1 if chi.order <= 2 else conjugate_jet(F1)
        A = bijet_substitute(F1, "XT_YT")
        B = bijet_substitute(F2, "T_-XYT")
        return trigen_mul(A, B, kmax)
    if route != "closed":
        raise ValueError(f"unknown route {route!r}")

    chibar = chi.conjugate()
    c0 = chi.scalar(0)
    weights: dict[int, dict] = {}
    for k in range(2, kmax + 1, 2):
        # (k1, k2, scale, series): series times P(k1, k2, (k - k1 - k2) / 2),
        # each monomial scaled by its sign times scale
        parts = [
            (k1, k2, 1, conv_g(k1, k2, (k - k1 - k2) // 2, chi, prec))
            for k1 in range(2, k - 1, 2)
            for k2 in range(2, k - k1 + 1, 2)
        ]
        if c0 != 0:  # the m = -1 terms, only at N = 1
            parts += [(0, k, c0, g_km(k, 0, chibar, prec)), (k, 0, c0, g_km(k, 0, chi, prec))]
        # per monomial, its (scale, series, None) terms
        terms: dict = {}
        for k1, k2, scale, series in parts:
            if series.is_zero():
                continue
            for a, b, sign in slice_monomials(k1, k2, (k - k1 - k2) // 2):
                terms.setdefault((a, b), []).append((sign * scale, series, None))
        # P(k1, k2, m) gives (a, b) and (b, a) the same sign: one sum per orbit
        weights[k] = orbit_sums(terms)

    principal = None
    if c0 != 0:
        principal = {(a, b): sign * c0 * c0 for a, b, sign in slice_monomials(0, 0, 0)}
    return TriGen(weights, principal)


@lru_cache(maxsize=None)
def _weight_products(w: int, chi: DirichletCharacter, prec: int) -> dict:
    """{(k1, k2): theta^t E_{k1,chi} E_{k2,conj(chi)}} for every pair with
    k1 + k2 + 2t = w and k1 <= k2, E the eisenstein_combo, in one qs_sums
    call (so each E_{k2,conj(chi)} is packed once per slot width); conv_g
    reads the swapped pair for k1 > k2."""
    chibar = chi.conjugate()
    pairs = [
        (k1, k2)
        for k1 in range(2, w - 1, 2)
        for k2 in range(2, w - k1 + 1, 2)
        if k1 <= k2
    ]
    rows = [
        [(1, theta_op(eisenstein_combo(k1, chi, prec), (w - k1 - k2) // 2), eisenstein_combo(k2, chibar, prec))]
        for k1, k2 in pairs
    ]
    return dict(zip(pairs, qs_sums(rows)))


def theta_product(k1: int, k2: int, t: int, chi: DirichletCharacter, prec: int) -> QSeries:
    """P_t = theta^t E_{k1,chi} E_{k2,conj(chi)}, E the eisenstein_combo: the one
    product that conv_g(k1, k2, m) reads for every m >= t, read from the
    products of its weight k1 + k2 + 2t, for k1 <= k2."""
    return _weight_products(k1 + k2 + 2 * t, chi, prec)[(k1, k2)]


@lru_cache(maxsize=None)
def conv_g(k1: int, k2: int, m: int, chi: DirichletCharacter, prec: int) -> QSeries:
    """g_{k1,k2,m,chi} by the convolution route:
    sum_{m1+m2=m, mi >= -1} (-1)^m2 g_{k1,m1,chi} g_{k2,m2,conj(chi)}, with
    g_{k,-1,chi} = chi(0) (only for k = 2), as one qs_sum of linear terms.

    The products come from the Leibniz rule
    theta^a f theta^b g = sum_j (-1)^j C(b, j) theta^(b-j) (theta^(a+j) f g),
    so the part with m1, m2 >= 0 is sum_{t<=m} c_t theta^(m-t) P_t with
    P_t = theta_product(k1, k2, t) and, for w = m + k1 + k2 - 2,

        c_t = (-1)^(m+t) C(m, t) sum_{j<=t} C(t, j) C(w, j + k1 - 1) / (m! w!)
        = (-1)^(m+t) C(m, t) C(w + t, t + k1 - 1) / (m! w!)

    (Vandermonde): every m of a pair (k1, k2) reads the same products
    P_0, P_1, ...  A chi(0) term is g_{k,m+1} = -theta^(m+1) E_k /
    ((m+1)! (m+k)!) times chi(0), added as its scale on theta^(m+1) E_k.

    Relabelling m1 <-> m2 turns the sum for (k1, k2, chi) into (-1)^m times
    the one for (k2, k1, conj(chi)), which is sigma of the one for
    (k2, k1, chi), sigma: zeta_m -> zeta_m^(-1).  So for k1 > k2 it is read
    as (-1)^m sigma(conv_g(k2, k1, m)).  For a real character (N = 1 and
    every quadratic chi) sigma is the identity and is skipped, and the
    chi(0) terms follow the same rule; a non-real chi has N > 1, so chi(0) = 0."""
    chibar = chi.conjugate()
    if k1 > k2:
        swapped = conv_g(k2, k1, m, chi, prec)
        if chibar != chi:
            swapped = qs_conj(swapped)
        return qs_scale(swapped, -1) if m % 2 else swapped
    w = m + k1 + k2 - 2
    den = factorial(m) * factorial(w)
    terms = []
    for t in range(m + 1):
        c = Fraction((-1) ** (m + t) * comb(m, t) * comb(w + t, t + k1 - 1), den)
        terms.append((c, theta_op(theta_product(k1, k2, t, chi, prec), m - t), None))
    chi0 = chi.modulus == 1  # chi(0) is 1 at N = 1 and 0 at every N > 1
    if k1 == 2 and chi0:  # m1 = -1: (-1)^(m+1) chi(0) g_{k2,m+1,conj(chi)}
        c = Fraction((-1) ** m, factorial(m + 1) * factorial(m + k2))
        terms.append((c, theta_op(eisenstein_combo(k2, chibar, prec), m + 1), None))
    if k2 == 2 and chi0:  # m2 = -1: -chi(0) g_{k1,m+1,chi}
        c = Fraction(1, factorial(m + 1) * factorial(m + k1))
        terms.append((c, theta_op(eisenstein_combo(k1, chi, prec), m + 1), None))
    return qs_sum(terms)
