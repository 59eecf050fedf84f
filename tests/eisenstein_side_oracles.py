"""The exact Eisenstein side of the identity as it was built one Fraction per
intermediate step, kept as the oracle of the package's versions.

The bodies below are arith's `bernoulli_number` and `scalar_to_json`,
dirichlet's `bernoulli_pair`, modforms' `slice_cusp_data` and periods'
`_twisted_periods_over_w`, `period_eisenstein`, `_chat`, `_r_from_chat` and
`_scaled_eisenstein_R` as they were before each value they keep was built
once.  Each calls the others here, so a chain of them is the old chain; the
rest (twisted Bernoulli numbers, Gauss sums, the bivariate dict helpers) is
the package's own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from kronlab.arith import Cyclotomic, RingMismatchError, rational_to_str
from kronlab.dirichlet import DirichletCharacter, trivial_character, twisted_bernoulli
from kronlab.modforms import SignCharacter, slice_monomials
from kronlab.ntheory import divisors, prime_divisors
from kronlab.periods import bivar_add, bivar_reflect, bivar_scale, bivar_swap, omega_minus


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


def scalar_to_json(x):
    if isinstance(x, Cyclotomic):
        return x.to_json()
    if isinstance(x, (int, Fraction)):
        return rational_to_str(Fraction(x))
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    raise RingMismatchError(f"cannot serialize {type(x).__name__}")


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
        out[r - 1] = b1 * b2 * Fraction(1, factorial(r) * factorial(k - r))
    return out


def slice_cusp_data(k: int, chi: DirichletCharacter) -> dict[int, dict]:
    """Constant terms of (weight-k product slice | W_M) at i*infinity, M | N,
    N the modulus of chi.

    Exact bivariate Laurent polynomials: each pair sum reads P(r, k - r, 0) with
    B_{r,chi1} B_{k-r,chi2} / (4 r! (k-r)!), at M = 1 the constant term of
    g_{r,k-r,0,chi}.  At N = 1 the three contributing pieces are one
    character pair, so their scales 1, 1 and 2 add up before the one pass.
    """
    N, chibar = chi.modulus, chi.conjugate()
    triv = trivial_character(1)
    out: dict[int, dict] = {}
    for M in divisors(N):
        parts: dict = {}  # (first character, second character) -> summed scale
        for chars, scale, present in (
            ((chi, chibar), Fraction(1), M == 1),
            ((chibar, chi), Fraction(1, N ** ((k - 2) // 2)), M == N),
            ((triv, triv), Fraction(2), N == 1),
        ):
            if present:
                parts[chars] = parts.get(chars, 0) + scale
        rows: dict = {}
        for (first, second), scale in parts.items():
            # bernoulli_pair's key is r - 1, r the first character's index
            for e, pair in bernoulli_pair(k, first, second).items():
                c = pair * scale / 4
                for a, b, sign in slice_monomials(e + 1, k - 1 - e, 0):
                    rows[(a, b)] = rows.get((a, b), Fraction(0)) + sign * c
        out[M] = {key: val for key, val in rows.items() if val != 0}
    return out


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
    odd = {e: c * (om * Fraction(N) ** (e + 1 - k))
           for e, c in bernoulli_pair(k, chi, chi.conjugate()).items()}
    return even, odd


def period_eisenstein(k: int, eps: SignCharacter) -> tuple[dict, dict]:
    """(even, odd) periods of G_{k,N}^eps, N = eps.level:

    even: omega_plus (eps(N) N^(k/2-1) X^(k-2) - 1) prod_p (1 + eps(p) p^(1-k/2));
    odd:  sum_{d|N} eps(d) d^(1-k/2) r^od_{G_k}(d X).

    The even part is never empty, though its coefficients can cancel.
    """
    if k == 2 and eps.is_trivial():
        raise ValueError("k = 2 with the trivial sign character is excluded")
    N = eps.level
    pminus = Fraction(1)
    for p in prime_divisors(N):
        pminus *= 1 + eps(p) * Fraction(1, p ** (k // 2 - 1))
    even = {
        k - 2: eps(N) * Fraction(N ** (k // 2), N) * pminus,
        0: -pminus,
    }
    if k == 2:
        # X^0 terms collide when k - 2 == 0
        even = {0: (eps(N) * Fraction(N ** (k // 2), N) - 1) * pminus}
    base = _twisted_periods_over_w(k, trivial_character(1))[1]  # r^od_{G_k}
    odd: dict = {}
    for d in divisors(N):
        scale = eps(d) * Fraction(1, d ** (k // 2 - 1))
        for e, c in base.items():
            odd[e] = odd.get(e, 0) + c * (scale * Fraction(d) ** e)
    return even, odd


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
    num: dict = {}
    for ypart, xpart in pairs:
        xpart = scaled(xpart)
        for b, cy in scaled(ypart).items():
            for a, cx in xpart.items():
                num[(a, b)] = num.get((a, b), 0) + cy * cx
    return {key: scale * c for key, c in num.items() if c != 0}


def _r_from_chat(chat: dict, k: int) -> dict:
    """R = Rhat + Rhat(Y, X), Rhat = (Chat + (XY)^(k-2) Chat(-1/X,-1/Y))/2."""
    rhat = bivar_scale(bivar_add(chat, bivar_reflect(chat, k)), Fraction(1, 2))
    return bivar_add(rhat, bivar_swap(rhat))


def _scaled_eisenstein_R(k: int, eps: SignCharacter, chi: DirichletCharacter, scale) -> dict:
    """scale times eisenstein_R(k, eps, chi), the scale folded into _chat's."""
    if k == 2:
        return {}
    N = eps.level
    norm = Fraction(-bernoulli_number(k), 2 * k) * 2 ** len(prime_divisors(N))
    for p in prime_divisors(N):
        norm *= (1 + eps(p) * p ** (k // 2)) * (1 + eps(p) * Fraction(1, p ** (k // 2 - 1)))
    f, f_chi = period_eisenstein(k, eps), _twisted_periods_over_w(k, chi)
    return _r_from_chat(_chat(f, f_chi, Fraction(N), scale * Fraction(N) ** (k - 1) / norm), k)
