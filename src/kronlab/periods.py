"""Period polynomials: exact closed forms for twisted Eisenstein series,
numeric assembly of the cusp-form polynomial R, and the identity's C-side.

The transcendental unit omega_plus = (2 pi i)^(1-k) zeta(k-1) omega_minus is
never evaluated on exact paths; it is tracked as a formal factor and cancels
in every assembled slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .arith import bernoulli_number, embed_complex
from .dirichlet import DirichletCharacter, gauss_sum, trivial_character, twisted_bernoulli
from .modforms import (
    SignCharacter,
    eisenstein_g_eps,
    sign_characters,
)
from .ntheory import divisors, prime_divisors
from .series import LaurentPolyX, qs_add, qs_scale


# ---------------------------------------------------------------------------
# Omega constants

@dataclass(frozen=True)
class OmegaConstants:
    """omega_minus = -(k-2)!/2 exactly; omega_plus as a formal unit with a
    numeric embedding (2 pi i)^(1-k) zeta(k-1) omega_minus."""

    k: int

    @property
    def minus(self) -> Fraction:
        return Fraction(-factorial(self.k - 2), 2)

    def plus_numeric(self) -> complex:
        from .dirichlet import l_value_numeric

        zeta = l_value_numeric(trivial_character(1), self.k - 1)
        return (2j * math.pi) ** (1 - self.k) * zeta * complex(self.minus)


# ---------------------------------------------------------------------------
# Bivariate Laurent-polynomial helpers (plain dicts keyed by (a, b))

def bivar_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c != 0}

def bivar_scale(p: dict, c) -> dict:
    if c == 0:
        return {}
    return {key: c * v for key, v in p.items()}

def bivar_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c != 0}

def bivar_swap(p: dict) -> dict:
    return {(b, a): c for (a, b), c in p.items()}

def bivar_reflect(p: dict, k: int) -> dict:
    """(XY)^(k-2) p(-1/X, -1/Y)."""
    out = {}
    for (a, b), c in p.items():
        out[(k - 2 - a, k - 2 - b)] = c if (a + b) % 2 == 0 else -c
    return out

def uni_to_bivar(poly: dict, var: str) -> dict:
    if var == "X":
        return {(e, 0): c for e, c in poly.items()}
    return {(0, e): c for e, c in poly.items()}


# ---------------------------------------------------------------------------
# Exact Eisenstein period polynomials (closed forms)

@dataclass
class PeriodData:
    """Even/odd parts of a period polynomial; the even part may carry a
    formal omega_plus unit."""

    form_id: str
    k: int
    even: LaurentPolyX
    odd: LaurentPolyX
    even_unit: str | None = None  # "omega_plus" when the unit is implied
    rn: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "form": self.form_id,
            "k": self.k,
            "even": self.even.to_json(),
            "odd": self.odd.to_json(),
            "even_unit": self.even_unit,
        }


def _gk_odd_period(k: int) -> dict:
    """r^od_{G_k}(X) = omega_minus sum_{r+s=k, even} (B_r/r!)(B_s/s!) X^(r-1)."""
    om = OmegaConstants(k).minus
    out: dict = {}
    for r in range(0, k + 1, 2):
        s = k - r
        c = om * bernoulli_number(r) * bernoulli_number(s) / (factorial(r) * factorial(s))
        if c != 0:
            out[r - 1] = out.get(r - 1, Fraction(0)) + c
    return out


def period_eisenstein(k: int, N: int, eps: SignCharacter) -> PeriodData:
    """Periods of G_{k,N}^eps:

    even: omega_plus (eps(N) N^(k/2-1) X^(k-2) - 1) prod_p (1 + eps(p) p^(1-k/2));
    odd:  sum_{d|N} eps(d) d^(1-k/2) r^od_{G_k}(d X).
    """
    if k == 2 and eps.is_trivial():
        raise ValueError("k = 2 with the trivial sign character is excluded")
    pminus = Fraction(1)
    for p in prime_divisors(N):
        pminus *= 1 + eps.sign(p) * Fraction(1, p ** (k // 2 - 1))
    even = {
        k - 2: eps(N) * Fraction(N ** (k // 2), N) * pminus,
        0: -pminus,
    }
    if k == 2:
        # X^0 terms collide when k - 2 == 0
        even = {0: (eps(N) * Fraction(N ** (k // 2), N) - 1) * pminus}
    base = _gk_odd_period(k)
    odd: dict = {}
    for d in divisors(N):
        scale = eps(d) * Fraction(1, d ** (k // 2 - 1))
        for e, c in base.items():
            odd[e] = odd.get(e, Fraction(0)) + scale * c * Fraction(d) ** e
    return PeriodData(
        form_id=f"G_{k},{N}^{eps.label()}",
        k=k,
        even=LaurentPolyX(even),
        odd=LaurentPolyX(odd),
        even_unit="omega_plus",
    )


def twisted_odd_period(k: int, chi: DirichletCharacter) -> dict:
    """omega_minus W(chi) N^(1-k) sum_{r+s=k, even} (B_{r,chi}/r!)(B_{s,conj}/s!)(N X)^(r-1)."""
    om = OmegaConstants(k).minus
    N = chi.modulus
    chibar = chi.conjugate()
    w = gauss_sum(chi)
    out: dict = {}
    for r in range(0, k + 1, 2):
        s = k - r
        br = twisted_bernoulli(r, chi)
        bs = twisted_bernoulli(s, chibar)
        if br == 0 or bs == 0:
            continue
        c = (
            w
            * br
            * bs
            * om
            * Fraction(N ** max(r - 1, 0), N ** (k - 1) * N ** max(1 - r, 0))
            * Fraction(1, factorial(r) * factorial(s))
        )
        out[r - 1] = out.get(r - 1, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def period_eisenstein_twisted(
    k: int, N: int, eps: SignCharacter, chi: DirichletCharacter
) -> PeriodData:
    """Periods of (G_{k,N}^eps)_chi:

    chi(0) omega_plus (X^(k-2) - 1) + the twisted-Bernoulli odd sum.  The
    result does not depend on eps: twisting kills every rescaled component.
    """
    even: dict = {}
    if chi.scalar(0) != 0:
        even = {k - 2: Fraction(1), 0: Fraction(-1)}
        if k == 2:
            even = {}
    odd = twisted_odd_period(k, chi)
    return PeriodData(
        form_id=f"(G_{k},{N}^{eps.label()})_chi",
        k=k,
        even=LaurentPolyX(even),
        odd=LaurentPolyX(odd),
        even_unit="omega_plus" if even else None,
    )


def cusp_period_data(form_id: str, k: int, rn: list) -> PeriodData:
    """Package numeric cusp periods r_0..r_{k-2} as PeriodData."""
    poly = period_polynomial_from_rn(k, [complex(x) for x in rn])
    return PeriodData(
        form_id=form_id,
        k=k,
        even=LaurentPolyX({e: c for e, c in poly.items() if e % 2 == 0}),
        odd=LaurentPolyX({e: c for e, c in poly.items() if e % 2 == 1}),
        rn={n: complex(x) for n, x in enumerate(rn)},
    )


# ---------------------------------------------------------------------------
# The exact C-side Eisenstein polynomials

def eisenstein_C_hat(k: int, N: int, eps: SignCharacter, chi: DirichletCharacter) -> dict:
    """Chat for f = G_{k,N}^eps with every transcendental factor cancelled:

    Chat = (1 + chi(0)) omega_minus (eps(N) N^((2-k)/2) Y^(k-2) - 1)
           * P_chi(X/N) * (-2k/B_k) / (2^t prod_p (1 + eps(p) p^(k/2)))

    where P_chi(X/N) = sum_{r+s=k even} (B_{r,chi}/r!)(B_{s,conj chi}/s!) X^(r-1).
    W(chi), N-powers, omega_plus and the (1 + eps(p) p^(1-k/2)) factors all
    cancel between the period numerator and the Petersson denominator.
    """
    if k == 2:
        return {}
    chibar = chi.conjugate()
    om = OmegaConstants(k).minus
    denom = Fraction(2 ** len(prime_divisors(N)))
    for p in prime_divisors(N):
        denom *= 1 + eps.sign(p) * p ** (k // 2)
    prefactor = (
        (1 + chi.scalar(0))
        * om
        * Fraction(-2 * k, 1)
        / bernoulli_number(k)
        / denom
    )
    # Y-part: eps(N) N^((2-k)/2) Y^(k-2) - 1
    npow = Fraction(1, N ** ((k - 2) // 2))
    ypart = {(0, k - 2): eps(N) * npow, (0, 0): Fraction(-1)}
    # X-part: P_chi(X/N)
    xpart: dict = {}
    for r in range(0, k + 1, 2):
        s = k - r
        br = twisted_bernoulli(r, chi)
        bs = twisted_bernoulli(s, chibar)
        if br == 0 or bs == 0:
            continue
        xpart[(r - 1, 0)] = br * bs * Fraction(1, factorial(r) * factorial(s))
    out = bivar_mul(ypart, xpart)
    return bivar_scale(out, prefactor)


def eisenstein_R(k: int, N: int, eps: SignCharacter, chi: DirichletCharacter) -> dict:
    """R for (G_{k,N}^eps)_chi via Rhat = (Chat + (XY)^(k-2) Chat(-1/X,-1/Y))/2."""
    chat = eisenstein_C_hat(k, N, eps, chi)
    if not chat:
        return {}
    rhat = bivar_scale(bivar_add(chat, bivar_reflect(chat, k)), Fraction(1, 2))
    return bivar_add(rhat, bivar_swap(rhat))


@dataclass
class CSlice:
    """Weight-k slice of the C generating function."""

    k: int
    rows: dict  # (a, b) -> QSeries
    multipliers: dict  # eps label -> bivariate dict (R_eps / (k-2)!)


def generating_C(
    k: int,
    N: int,
    chi: DirichletCharacter,
    prec: int,
    cusp_parts: list | None = None,
) -> CSlice:
    """C_{k,N,chi} = (1/(k-2)!) sum_f R_{f_chi} f over the Hecke basis.

    The Eisenstein part is exact; optional cusp_parts entries are
    (R_bivar, series) pairs carrying the unnormalized R polynomial,
    added with the same 1/(k-2)! normalization.
    """
    rows: dict = {}
    multipliers: dict = {}
    inv_fact = Fraction(1, factorial(k - 2))
    eps_list = sign_characters(N)
    if k == 2:
        eps_list = [e for e in eps_list if not e.is_trivial()]
    for eps in eps_list:
        r_poly = eisenstein_R(k, N, eps, chi)
        poly = bivar_scale(r_poly, inv_fact)
        multipliers[eps.label()] = poly
        if not poly:
            continue
        series = eisenstein_g_eps(k, N, eps, prec).series
        for key, c in poly.items():
            term = qs_scale(series, c)
            rows[key] = qs_add(rows[key], term) if key in rows else term
    for R_poly, series in cusp_parts or []:
        for key, c in R_poly.items():
            term = qs_scale(series, c * inv_fact)
            rows[key] = qs_add(rows[key], term) if key in rows else term
    rows = {key: q for key, q in rows.items() if not q.is_zero()}
    return CSlice(k, rows, multipliers)


# ---------------------------------------------------------------------------
# Numeric cusp-form R assembly and the Petersson fit

@dataclass
class RPolynomial:
    coeffs: dict  # (a, b) -> complex or exact
    provenance: str  # "extracted-exact" | "assembled-numeric"

    def to_json(self):
        from .arith import scalar_to_json

        return {
            "provenance": self.provenance,
            "coeffs": {f"X{a}_Y{b}": scalar_to_json(c) for (a, b), c in sorted(self.coeffs.items())},
        }


def period_polynomial_from_rn(k: int, rn: list) -> dict:
    """r_f(X) = sum_n (-1)^n C(k-2, n) r_n X^(k-2-n) as exponent -> value."""
    out = {}
    for n, r in enumerate(rn):
        c = (-1) ** n * comb(k - 2, n) * r
        if c != 0:
            out[k - 2 - n] = out.get(k - 2 - n, 0) + c
    return out


def assemble_R(
    k: int,
    N: int,
    chi: DirichletCharacter,
    rn_f: list,
    rn_f_chi: list,
    petersson,
) -> RPolynomial:
    """R_{f_chi} from numeric period lists via

    Chat(X,Y) = [rf^ev(Y/N) rfchi^od(X/N) + rfchi^ev(Y/N) rf^od(X/N)]
                / (N^(1-k) W(chi) 2 (2i)^(k-3) <f,f>),
    Rhat = (Chat + (XY)^(k-2) Chat(-1/X,-1/Y)) / 2,  R = Rhat + Rhat-swapped.
    """
    if petersson == 0:
        raise ZeroDivisionError("vanishing Petersson norm")
    if len(rn_f) != k - 1 or len(rn_f_chi) != k - 1:
        raise ValueError("need all periods n = 0..k-2")
    rf = period_polynomial_from_rn(k, [complex(x) for x in rn_f])
    rfchi = period_polynomial_from_rn(k, [complex(x) for x in rn_f_chi])

    def scaled(poly, parity):
        part = {e: c for e, c in poly.items() if e % 2 == parity}
        return {e: c * float(N) ** (-e) for e, c in part.items()}

    num = bivar_add(
        bivar_mul(uni_to_bivar(scaled(rf, 0), "Y"), uni_to_bivar(scaled(rfchi, 1), "X")),
        bivar_mul(uni_to_bivar(scaled(rfchi, 0), "Y"), uni_to_bivar(scaled(rf, 1), "X")),
    )
    w = embed_complex(gauss_sum(chi))
    denom = float(N) ** (1 - k) * w * 2 * (2j) ** (k - 3) * complex(petersson)
    chat = bivar_scale(num, 1 / denom)
    rhat = bivar_scale(bivar_add(chat, bivar_reflect(chat, k)), 0.5)
    return RPolynomial(bivar_add(rhat, bivar_swap(rhat)), "assembled-numeric")


class FitError(ValueError):
    pass


def petersson_fit(R_exact: dict, R_unnormed: dict, rel_tol: float = 1e-6):
    """Fit the single scalar <f,f> between the exact extracted polynomial and
    the numeric assembly computed with <f,f> = 1.

    Returns (lam, max_rel_deviation); lam must be real positive within
    rel_tol and consistent across every monomial.
    """
    lams = []
    for key, exact in sorted(R_exact.items()):
        ex = embed_complex(exact) if not isinstance(exact, complex) else exact
        if abs(ex) < 1e-12:
            continue
        num = complex(R_unnormed.get(key, 0j))
        lams.append(num / ex)
    if not lams:
        raise FitError("no nonzero monomials to fit against")
    lam0 = sorted(lams, key=abs)[len(lams) // 2]
    dev = max(abs(l / lam0 - 1) for l in lams)
    extra = [key for key in R_unnormed if key not in R_exact and abs(R_unnormed[key]) > abs(lam0) * rel_tol]
    if extra:
        raise FitError(f"numeric R has unmatched monomials {extra}")
    if dev > rel_tol:
        raise FitError(f"cross-monomial deviation {dev:.3e} exceeds {rel_tol}")
    if abs(lam0.imag) > rel_tol * abs(lam0) or lam0.real <= 0:
        raise FitError(f"fitted norm {lam0} is not real positive")
    return lam0.real, dev


def rational_snap(x: float, max_den: int = 10**6, tol: float = 1e-6):
    """Smallest-denominator rational within tol of x (continued-fraction
    ladder up to max_den), plus the snap residual."""
    f = Fraction(x)
    cap = 1
    while cap <= max_den:
        cand = f.limit_denominator(cap)
        if abs(x - float(cand)) <= tol:
            return cand, abs(x - float(cand))
        cap *= 10
    fr = f.limit_denominator(max_den)
    return fr, abs(x - float(fr))
