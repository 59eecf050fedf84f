"""Period polynomials: exact closed forms for twisted Eisenstein series, the
numeric cusp-form periods, and the one assembly (`_chat`) of the polynomial R
that the identity's C-side reads for every Hecke eigenform.

The transcendental unit omega_plus = (2 pi i)^(1-k) zeta(k-1) omega_minus is
never evaluated on exact paths; it is tracked as a formal factor and cancels
in every assembled slice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial

from .arith import bernoulli_number, embed_complex
from .dirichlet import DirichletCharacter, bernoulli_pair, gauss_sum, trivial_character
from .modforms import SignCharacter, eisenstein_g_eps, eisenstein_signs
from .ntheory import divisors, prime_divisors
from .series import orbit_sums


def omega_minus(k: int) -> Fraction:
    """omega_minus = -(k-2)!/2, exactly."""
    return Fraction(-factorial(k - 2), 2)


# ---------------------------------------------------------------------------
# Bivariate Laurent-polynomial helpers (plain dicts keyed by (a, b))

def bivar_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for key, c in q.items():
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c != 0}

def bivar_scale(p: dict, c) -> dict:
    if c == 0:
        return {}
    return {key: c * v for key, v in p.items()}

def bivar_swap(p: dict) -> dict:
    return {(b, a): c for (a, b), c in p.items()}

def bivar_reflect(p: dict, k: int) -> dict:
    """(XY)^(k-2) p(-1/X, -1/Y)."""
    out = {}
    for (a, b), c in p.items():
        out[(k - 2 - a, k - 2 - b)] = c if (a + b) % 2 == 0 else -c
    return out


# ---------------------------------------------------------------------------
# Exact Eisenstein period polynomials (closed forms)
#
# A Laurent polynomial in X is a plain {exponent: coefficient} dict.  A period
# polynomial is returned as its (even, odd) parts; the even part of a closed
# form carries the formal unit omega_plus.

@lru_cache(maxsize=None)
def _twisted_periods_over_w(k: int, chi: DirichletCharacter) -> tuple[dict, dict]:
    """(even, odd) periods of (G_{k,N}^eps)_chi over W(chi), N the modulus of chi:

    even: chi(0) omega_plus (X^(k-2) - 1), empty when chi(0) = 0 (N > 1) or k = 2;
    odd:  omega_minus N^(1-k) sum_{r+s=k, even} (B_{r,chi}/r!)(B_{s,conj}/s!)(N X)^(r-1).

    The even part needs no division, since chi(0) != 0 only at N = 1, where
    W(chi) = 1; there the pair is the periods of G_k.  Cached, so callers
    must not change it.
    """
    N = chi.modulus
    even: dict = {}
    if chi.scalar(0) != 0 and k != 2:
        even = {k - 2: Fraction(1), 0: Fraction(-1)}
    om = omega_minus(k)
    # N^(e+1-k) = 1 / N^(k-1-e), e <= k - 1
    odd = {e: c * (om if N == 1 else om / N ** (k - 1 - e))
           for e, c in bernoulli_pair(k, chi, chi.conjugate()).items()}
    return even, odd


def period_eisenstein(k: int, eps: SignCharacter) -> tuple[dict, dict]:
    """(even, odd) periods of G_{k,N}^eps, N = eps.level:

    even: omega_plus (eps(N) N^(k/2-1) X^(k-2) - 1) prod_p (1 + eps(p) p^(1-k/2));
    odd:  sum_{d|N} eps(d) d^(1-k/2) r^od_{G_k}(d X).

    The even part is never empty, though its coefficients can cancel.  The
    odd part takes one product per (d, e): c times the integer eps(d) d^p,
    p = e + 1 - k/2, or c over eps(d) d^-p when p < 0; the d = 1 term is c.
    """
    if k == 2 and eps.is_trivial():
        raise ValueError("k = 2 with the trivial sign character is excluded")
    N = eps.level
    h = k // 2
    pminus = Fraction(1)
    for p in prime_divisors(N):
        pminus *= Fraction(p ** (h - 1) + eps(p), p ** (h - 1))
    even = {
        k - 2: pminus * (eps(N) * N ** (h - 1)),
        0: -pminus,
    }
    if k == 2:
        # X^0 terms collide when k - 2 == 0
        even = {0: pminus * (eps(N) - 1)}
    base = _twisted_periods_over_w(k, trivial_character(1))[1]  # r^od_{G_k}
    odd: dict = {}
    for d in divisors(N):
        for e, c in base.items():
            p = e + 1 - h
            if d == 1:
                x = c
            elif p >= 0:
                x = c * (eps(d) * d**p)
            else:  # d**p is a float
                x = c / (eps(d) * d**-p)
            odd[e] = odd[e] + x if e in odd else x
    return even, odd


def period_eisenstein_twisted(k: int, chi: DirichletCharacter) -> tuple[dict, dict]:
    """(even, odd) periods of (G_{k,N}^eps)_chi, N the modulus of chi, for
    every eps: _twisted_periods_over_w with the odd part times W(chi).
    Twisting kills every rescaled component, so eps does not enter.
    """
    even, odd = _twisted_periods_over_w(k, chi)
    w = gauss_sum(chi)
    return dict(even), {e: w * c for e, c in odd.items()}


# ---------------------------------------------------------------------------
# R from periods, for every Hecke eigenform

def _chat(f: tuple, f_chi: tuple, N, scale) -> dict:
    """Chat(X, Y) = [r_f^ev(Y/N) r_{f_chi}^od(X/N) + r_{f_chi}^ev(Y/N) r_f^od(X/N)] * scale
    from the (even, odd) periods of f and of f_chi; N is a float on the
    numeric path and a Fraction on the exact one.  When f_chi equals f (the
    Eisenstein periods at N = 1) the two products are one, formed once
    with the scale doubled."""

    def scaled(part):
        return part if N == 1 else {e: c * N ** (-e) for e, c in part.items()}

    (f_even, f_odd), (fchi_even, fchi_odd) = f, f_chi
    pairs = ((f_even, fchi_odd), (fchi_even, f_odd))
    if f_chi == f:
        pairs, scale = pairs[:1], 2 * scale
    # a float sum keeps its start at 0, which turns a -0.0 part of its first
    # product into 0.0 (the numeric R's bits depend on it); an exact sum
    # starts at its first product, so no value is built twice
    exact = not isinstance(N, float)
    num: dict = {}
    for ypart, xpart in pairs:
        xpart = scaled(xpart)
        for b, cy in scaled(ypart).items():
            for a, cx in xpart.items():
                x = cy * cx
                if (a, b) in num:
                    num[(a, b)] += x
                else:
                    num[(a, b)] = x if exact else 0 + x
    return {key: scale * c for key, c in num.items() if c != 0}


def _r_from_chat(chat: dict, k: int) -> dict:
    """R = Rhat + Rhat(Y, X), Rhat = (Chat + (XY)^(k-2) Chat(-1/X,-1/Y))/2."""
    rhat = bivar_scale(bivar_add(chat, bivar_reflect(chat, k)), Fraction(1, 2))
    return bivar_add(rhat, bivar_swap(rhat))


def eisenstein_R(k: int, eps: SignCharacter, chi: DirichletCharacter) -> dict:
    """R for (G_{k,N}^eps)_chi, N = eps.level, exact: _chat of the periods of
    G_{k,N}^eps and of its twist over W(chi) (`_twisted_periods_over_w`), with
    scale N^(k-1) / norm_eps, where

        norm_eps = 2^omega(N) c_eps prod_p (1 + eps(p) p^(1-k/2)),
        c_eps = -B_k/2k prod_p (1 + eps(p) p^(k/2)), the constant term of G_{k,N}^eps.

    This is the cusp-form scale 1 / (N^(1-k) W(chi) 2 (2i)^(k-3) <f,f>) with
    2 (2i)^(k-3) <f,f> replaced by norm_eps, in units of the omega_plus that
    both even parts carry, and with W(chi) taken off the twisted odd part
    instead of divided out.  At k = 2 every eps is nontrivial, so the norm
    vanishes and R is 0.
    """
    return _scaled_eisenstein_R(k, eps, chi, 1)


def _scaled_eisenstein_R(k: int, eps: SignCharacter, chi: DirichletCharacter, scale) -> dict:
    """scale times eisenstein_R(k, eps, chi), the scale folded into _chat's."""
    if k == 2:
        return {}
    N = eps.level
    norm = Fraction(-bernoulli_number(k), 2 * k) * 2 ** len(prime_divisors(N))
    for p in prime_divisors(N):
        norm *= (1 + eps(p) * p ** (k // 2)) * (1 + eps(p) * Fraction(1, p ** (k // 2 - 1)))
    f, f_chi = period_eisenstein(k, eps), _twisted_periods_over_w(k, chi)
    return _r_from_chat(_chat(f, f_chi, Fraction(N), scale * N ** (k - 1) / norm), k)


class CSlice:
    """Weight-k slice of the C generating function, N the modulus of chi.

    signs holds the SignCharacters eps of the Eisenstein basis and
    multipliers maps an eps label to its bivariate dict R_eps / (k-2)!.
    `rows` maps (a, b) -> QSeries, its sum over the G_{k,N}^eps (one
    series.orbit_sums call), and is built on its first read: only a
    comparison with a rank-0 product slice reads it.
    """

    def __init__(self, k: int, prec: int, signs: list, multipliers: dict):
        self.k, self.prec, self.signs, self.multipliers = k, prec, signs, multipliers

    @cached_property
    def rows(self) -> dict:
        terms: dict = {}
        for eps in self.signs:
            poly = self.multipliers[eps.label()]
            if not poly:
                continue
            series = eisenstein_g_eps(self.k, eps, self.prec)
            for key, c in poly.items():
                terms.setdefault(key, []).append((c, series, None))
        return orbit_sums(terms)


def generating_C(k: int, chi: DirichletCharacter, prec: int) -> CSlice:
    """The Eisenstein part of C_{k,N,chi} = (1/(k-2)!) sum_f R_{f_chi} f over
    the Hecke basis, N the modulus of chi, exact: the multipliers R_eps / (k-2)!
    now, the rows on first read (CSlice)."""
    signs = eisenstein_signs(chi.modulus, k)
    inv_fact = Fraction(1, factorial(k - 2))
    multipliers = {eps.label(): _scaled_eisenstein_R(k, eps, chi, inv_fact) for eps in signs}
    return CSlice(k, prec, signs, multipliers)


# ---------------------------------------------------------------------------
# Numeric cusp-form R assembly and the Petersson fit

def period_polynomial_from_rn(k: int, rn: list) -> dict:
    """r_f(X) = sum_n (-1)^n C(k-2, n) r_n X^(k-2-n) as exponent -> value."""
    out = {}
    for n, r in enumerate(rn):
        c = (-1) ** n * comb(k - 2, n) * r
        if c != 0:
            out[k - 2 - n] = out.get(k - 2 - n, 0) + c
    return out


def cusp_period_data(k: int, rn: list) -> tuple[dict, dict]:
    """(even, odd) parts of r_f(X) from numeric cusp periods r_0..r_{k-2}."""
    poly = period_polynomial_from_rn(k, [complex(x) for x in rn])
    even = {e: c for e, c in poly.items() if e % 2 == 0}
    odd = {e: c for e, c in poly.items() if e % 2 == 1}
    return even, odd


def assemble_R(k: int, chi: DirichletCharacter, rn_f: list, rn_f_chi: list) -> dict:
    """R_{f_chi} from numeric period lists, N the modulus of chi, computed
    with <f,f> = 1: _chat of their (even, odd) parts with scale
    1 / (N^(1-k) W(chi) 2 (2i)^(k-3))."""
    if len(rn_f) != k - 1 or len(rn_f_chi) != k - 1:
        raise ValueError("need all periods n = 0..k-2")
    N = chi.modulus
    w = embed_complex(gauss_sum(chi))
    denom = float(N) ** (1 - k) * w * 2 * (2j) ** (k - 3)
    chat = _chat(cusp_period_data(k, rn_f), cusp_period_data(k, rn_f_chi), float(N), 1 / denom)
    return _r_from_chat(chat, k)


def petersson_fit(R_exact: dict, R_unnormed: dict):
    """Fit the single scalar <f,f> between the exact extracted polynomial and
    the numeric assembly computed with <f,f> = 1.

    Returns (lam, deviation, unmatched): lam the median ratio numeric/exact
    over the exact monomials (complex; the fit wants it real positive),
    deviation the largest relative departure of a monomial's ratio from lam,
    and unmatched the largest numeric monomial absent from R_exact, relative
    to |lam|.  ValueError when R_exact has no nonzero monomial.
    """
    lams = []
    for key, exact in sorted(R_exact.items()):
        ex = embed_complex(exact) if not isinstance(exact, complex) else exact
        if abs(ex) < 1e-12:
            continue
        num = complex(R_unnormed.get(key, 0j))
        lams.append(num / ex)
    if not lams:
        raise ValueError("no nonzero monomials to fit against")
    lam0 = sorted(lams, key=abs)[len(lams) // 2]
    dev = max(abs(l / lam0 - 1) for l in lams)
    unmatched = max((abs(c) for key, c in R_unnormed.items() if key not in R_exact), default=0.0)
    return lam0, dev, unmatched / abs(lam0)


SNAP_MAX_DEN = 10**6  # the largest denominator rational_snap returns


def rational_snap(x: float, tol: float = 1e-6):
    """Smallest-denominator rational within tol of x (continued-fraction
    ladder up to SNAP_MAX_DEN), plus the snap residual."""
    f = Fraction(x)
    cap = 1
    while cap <= SNAP_MAX_DEN:
        cand = f.limit_denominator(cap)
        if abs(x - float(cand)) <= tol:
            return cand, abs(x - float(cand))
        cap *= 10
    fr = f.limit_denominator(SNAP_MAX_DEN)
    return fr, abs(x - float(fr))
