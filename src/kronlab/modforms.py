"""Eisenstein families, level raising, Hecke operators, cusp data and
rank-one cusp extraction on Gamma0(N) for square-free N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import linalg
from .arith import Cyclotomic, scalar_to_json
from .dirichlet import (
    DirichletCharacter,
    bernoulli_pair,
    gauss_sum,
    trivial_character,
    twisted_bernoulli,
)
from .ntheory import divisors, is_squarefree, prime_divisors
from .series import (
    PrecisionError,
    QSeries,
    divisor_sum,
    qs_proportional,
    qs_rescale,
    qs_scale,
    qs_sum,
    qs_sums,
    slice_orbits,
    u_op,
)


# ---------------------------------------------------------------------------
# Atkin-Lehner sign characters

class SignCharacter:
    """Multiplicative sign map on divisors of a square-free level.

    eps(M) is the product of the per-prime signs over p | M; the group law is
    N1 * N2 = N1 N2 / (N1, N2)^2.  Equal by value and hashable (an lru_cache
    key); its two fields are not to be changed.
    """

    __slots__ = ("level", "signs")

    def __init__(self, level: int, signs: tuple):
        self.level = level
        self.signs = signs  # sorted (prime, +-1)
        if not is_squarefree(level):
            raise ValueError("sign characters need a square-free level")
        if tuple(p for p, _ in signs) != prime_divisors(level):
            raise ValueError("signs must cover exactly the primes of the level")
        if any(s not in (1, -1) for _, s in signs):
            raise ValueError("signs must be +-1")

    def __eq__(self, other):
        if not isinstance(other, SignCharacter):
            return NotImplemented
        return (self.level, self.signs) == (other.level, other.signs)

    def __hash__(self):
        return hash((self.level, self.signs))

    def __repr__(self):
        return f"SignCharacter(level={self.level!r}, signs={self.signs!r})"

    def __call__(self, M: int) -> int:
        if self.level % M:
            raise ValueError(f"{M} does not divide level {self.level}")
        out = 1
        for p, s in self.signs:
            if M % p == 0:
                out *= s
        return out

    def is_trivial(self) -> bool:
        return all(s == 1 for _, s in self.signs)

    def label(self) -> str:
        if not self.signs:
            return "+"
        return "".join("+" if s == 1 else "-" for _, s in self.signs)


def sign_characters(N: int) -> list[SignCharacter]:
    """All 2^omega(N) sign characters, all-plus first."""
    ps = prime_divisors(N)
    out = []
    for combo in product((1, -1), repeat=len(ps)):
        out.append(SignCharacter(N, tuple(zip(ps, combo))))
    return out


def eisenstein_signs(N: int, k: int) -> list[SignCharacter]:
    """The eps of the Eisenstein basis G_{k,N}^eps of weight k: every sign
    character, less the trivial one at k = 2 (G_2 is not modular)."""
    return [e for e in sign_characters(N) if k != 2 or not e.is_trivial()]


# ---------------------------------------------------------------------------
# Eisenstein series

def eisenstein_g(k: int, prec: int) -> QSeries:
    """G_k = -B_k/2k + sum sigma_{k-1}(n) q^n on SL_2(Z): G_{k,chi} at chi = 1."""
    if k < 2 or k % 2:
        raise ValueError("G_k needs even k >= 2")
    return eisenstein_g_chi(k, trivial_character(), prec)


def _parity_ok(chi: DirichletCharacter, k: int) -> bool:
    return chi.is_even() == (k % 2 == 0)


@lru_cache(maxsize=None)
def eisenstein_g_chi(k: int, chi: DirichletCharacter, prec: int) -> QSeries:
    """G_{k,chi}: constant -B_{k,conj(chi)}/2k, coefficients sum_{d|n} conj(chi)(d) d^(k-1).

    A parity-violating pair yields the zero series.
    """
    if not _parity_ok(chi, k):
        return QSeries.zero(prec)
    chibar = chi.conjugate()
    constant = Fraction(-1, 2 * k) * twisted_bernoulli(k, chibar)
    return divisor_sum(prec, chi.order, chibar.exponents, 1, [(k - 1, 0)], constant)


@lru_cache(maxsize=None)
def eisenstein_h_chi(k: int, chi: DirichletCharacter, prec: int) -> QSeries:
    """H_{k,chi}: coefficients sum_{d|n} chi(n/d) d^(k-1), constant term 0;
    at N = 1 the form is G_k (chi(0) carries the distinction): G_k's own series."""
    if chi.modulus == 1:
        return eisenstein_g_chi(k, chi, prec)
    if not _parity_ok(chi, k):
        return QSeries.zero(prec)
    return divisor_sum(prec, chi.order, chi.exponents, 1, [(0, k - 1)])


def level_raise(f: QSeries, k: int, eps2: SignCharacter) -> QSeries:
    """L^{eps2}_{k,N2}: f -> sum_{d | N2} eps2(d) d^(k/2) f(q^d), N2 = eps2.level."""
    if k % 2:
        raise ValueError("even weight required")
    return qs_sum([(eps2(d) * d ** (k // 2), qs_rescale(f, d), None) for d in divisors(eps2.level)])


@lru_cache(maxsize=None)
def eisenstein_g_eps(k: int, eps: SignCharacter, prec: int) -> QSeries:
    """G_{k,N}^eps, the level-raised G_k attached to a sign character of level N."""
    return level_raise(eisenstein_g(k, prec), k, eps)


def hecke_Tp(f: QSeries, k: int, N: int, p: int) -> QSeries:
    """T_p f = a(np) + p^(k-1) a(n/p) on q-expansions, at precision f.prec // p;
    the second term is dropped when p | N."""
    if f.prec < p:
        raise PrecisionError("need precision >= p for T_p")
    terms = [(1, u_op(f, p), None)]
    if N % p:
        terms.append((p ** (k - 1), qs_rescale(f, p, f.prec // p), None))
    return qs_sum(terms)


# ---------------------------------------------------------------------------
# Cusp limits and the closed-form cusp values of the product slices

def cusp_limit(kind: str, r: int, chi: DirichletCharacter, M: int):
    """Limit at i*infinity of (G_{r,chi} | W_M) resp. (H_{r,chi} | W_M).

    G: -B_{r, conj(chi)} / 2r at M = 1 and 0 otherwise (the constant term of
    the double-series normalization); H: -(W(chi)/N^(r/2)) B_{r,conj(chi)} / 2r
    at M = N and 0 otherwise.
    """
    N = chi.modulus
    if N % M:
        raise ValueError(f"{M} does not divide the conductor {N}")
    chibar = chi.conjugate()
    if kind == "G":
        if M == 1:
            return Fraction(-1, 2 * r) * twisted_bernoulli(r, chibar)
        return Fraction(0)
    if kind == "H":
        if M == N:
            w = gauss_sum(chi)
            half = r // 2
            if r % 2 == 0:
                scale = Fraction(1, N**half)
                return w * scale * twisted_bernoulli(r, chibar) * Fraction(-1, 2 * r)
            raise ValueError("odd weight limit not needed")
        return Fraction(0)
    raise ValueError(f"unknown kind {kind!r}")


def slice_monomials(k1: int, k2: int, m: int) -> list[tuple[int, int, int]]:
    """P(k1, k2, m) = (X^(k1-1) + Y^(k1-1))(1 - (XY)^(k2-1))(XY)^m as (a, b, sign),
    the one source of slice monomials: B_{N,chi}'s weight-k slice is the sum of
    g_{k1,k2,m,chi} P(k1, k2, m) over k1 + k2 + 2m = k, plus chi(0) times
    P(0, k, 0) and P(k, 0, 0); its principal part is chi(0)^2 P(0, 0, 0)."""
    out = []
    for (a, b) in ((k1 - 1 + m, m), (m, k1 - 1 + m)):
        out.append((a, b, 1))
        out.append((a + k2 - 1, b + k2 - 1, -1))
    return out


def slice_cusp_data(k: int, chi: DirichletCharacter) -> dict[int, dict]:
    """Constant terms of (weight-k product slice | W_M) at i*infinity, M | N,
    N the modulus of chi.

    Exact bivariate Laurent polynomials: each pair sum reads P(r, k - r, 0) with
    B_{r,chi1} B_{k-r,chi2} / (4 r! (k-r)!), at M = 1 the constant term of
    g_{r,k-r,0,chi}.  At N = 1 the three contributing pieces are one
    character pair, so their scales 1, 1 and 2 add up before the one pass.
    Each pair value is scaled once and stored as +-c; only a monomial that
    repeats adds.
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
            scale /= 4
            # bernoulli_pair's key is r - 1, r the first character's index
            for e, pair in bernoulli_pair(k, first, second).items():
                c = pair if scale == 1 else pair * scale
                signed = {1: c, -1: -c}
                for a, b, sign in slice_monomials(e + 1, k - 1 - e, 0):
                    x = signed[sign]
                    rows[(a, b)] = rows[(a, b)] + x if (a, b) in rows else x
        out[M] = {key: val for key, val in rows.items() if val != 0}
    return out


# ---------------------------------------------------------------------------
# Rank-one cusp extraction

class ExtractionResult:
    """A weight-k slice at level N split by extract_rank_one_cusp: its cusp
    rank, the Eisenstein multipliers (eps label -> {(a, b): exact scalar}),
    and at rank one the normalised eigenform and r_poly ({(a, b): exact
    scalar}, the slice normalization)."""

    __slots__ = ("weight", "level", "rank", "multipliers", "eigenform", "r_poly")

    def __init__(self, weight: int, level: int, rank: int, multipliers: dict,
                 eigenform: QSeries | None = None, r_poly: dict | None = None):
        self.weight, self.level, self.rank = weight, level, rank
        self.multipliers, self.eigenform, self.r_poly = multipliers, eigenform, r_poly

    def to_json(self):
        return {
            "weight": self.weight,
            "level": self.level,
            "rank": self.rank,
            "eigenform": self.eigenform.to_json() if self.eigenform else None,
            "R_poly": {
                f"X{a}_Y{b}": scalar_to_json(c) for (a, b), c in sorted(self.r_poly.items())
            }
            if self.r_poly
            else None,
            "multipliers": {
                label: {f"X{a}_Y{b}": scalar_to_json(c) for (a, b), c in sorted(poly.items())}
                for label, poly in self.multipliers.items()
            },
        }


class RankError(ValueError):
    def __init__(self, rank, msg):
        self.rank = rank
        super().__init__(msg)


def extract_rank_one_cusp(
    slice_rows: dict,
    k: int,
    chi: DirichletCharacter,
    prec: int,
) -> ExtractionResult:
    """Split a weight-k slice at level N, the modulus of chi, into its
    Eisenstein combination and a rank-one cusp part.

    The Eisenstein multipliers are read off the exact cusp values d_M of the
    slice at all W_M (slice_cusp_data), which are free of cusp-form
    contamination.  G^eps | W_M has the value eps(M) c_eps, c_eps the
    constant term of G^eps (-B_k/2k prod_p (1 + eps(p) p^(k/2)), never 0);
    the sign characters are the characters of (Z/2)^omega(N), so

        lambda_eps = sum_{M | N} eps(M) d_M / (2^omega(N) c_eps),

    one sign vector per eps and weight.  At k = 2 the trivial eps has no
    form, so each monomial's d_M must sum to 0 over M | N, else RankError.
    The constant-term consistency of the remainder and its exact rank
    factorization over-determine the multipliers.  They are computed once
    per X <-> Y orbit (slice_orbits): only a representative gets its
    weight-2 check, its multipliers and the terms of its remainder
    S - sum lam_eps G^eps (S its slice row, the remainder itself when no
    lam_eps is nonzero), and all those remainders are summed in one qs_sums
    call (each G^eps lifted once).  A mirror key then takes its
    representative's multipliers and remainder.
    Only the pivot becomes the normalised eigenform.
    """
    N = chi.modulus
    eps_list = eisenstein_signs(N, k)
    forms = [eisenstein_g_eps(k, e, prec) for e in eps_list]
    ms = divisors(N)
    # eps(M) / (2^omega(N) c_eps): the square-free N has 2^omega(N) divisors
    signs = []
    for e, form in zip(eps_list, forms):
        scale = Fraction(1) / (len(ms) * form.coeff(0))
        signs.append([e(M) * scale for M in ms])
    cusp_data = slice_cusp_data(k, chi)

    keys = set(slice_rows)
    for M in ms:
        keys |= set(cusp_data[M])
    # the d_M of each key, None where it is 0
    values = {key: tuple(cusp_data[M].get(key) for M in ms) for key in sorted(keys)}
    orbit = slice_orbits({key: (slice_rows.get(key), d) for key, d in values.items()})
    # per representative: its (label, lam_eps) pairs, and its remainder's
    # terms, or with no lam_eps its slice row S, the remainder itself
    lams, terms, rows = {}, {}, {}
    for key in [key for key, rep in orbit.items() if rep == key]:
        present = [(i, x) for i, x in enumerate(values[key]) if x is not None]
        if k == 2 and sum(x for _, x in present) != 0:
            raise RankError(-1, f"weight-2 cusp data at {key} does not sum to 0 over the W_M")
        lams[key], ts = [], []
        for e, vec, form in zip(eps_list, signs, forms):
            # summed from the first product, not from 0
            prods = [vec[j] * x for j, x in present]
            lam_e = sum(prods[1:], prods[0]) if prods else 0
            if lam_e != 0:
                lams[key].append((e.label(), lam_e))
                ts.append((-lam_e, form, None))
        row = slice_rows.get(key)
        if ts:
            terms[key] = ts if row is None else [(1, row, None), *ts]
        elif row is not None:
            rows[key] = row
    rows.update(zip(terms, qs_sums(terms.values())))
    rows = {key: row for key, row in sorted(rows.items()) if not row.is_zero()}
    for key, row in rows.items():
        if row.coeff(0) != 0:
            raise RankError(-1, f"remainder at {key} has a constant term")

    multipliers = {e.label(): {} for e in eps_list}
    for key, rep in orbit.items():
        for label, lam_e in lams[rep]:
            multipliers[label][key] = lam_e
    if not rows:
        return ExtractionResult(k, N, 0, multipliers)

    # rank one exactly when every representative's row is proportional to
    # the pivot; the exact rank only reports a larger one
    pivot = rows[min(rows)]
    if not all(qs_proportional(row, pivot) for row in rows.values()):
        rk = linalg.rank([list(q.coeffs) for q in rows.values()])
        raise RankError(rk, f"cusp remainder has rank {rk} > 1")

    a1 = pivot.coeff(1)
    if a1 == 0:
        raise RankError(1, "pivot cusp row has a(1) = 0")
    eigen = qs_scale(pivot, Fraction(1) / a1)
    # row = row[1] * eigen, eigen having a(1) = 1
    r_poly = {key: rows[rep].coeff(1) for key, rep in orbit.items() if rep in rows}
    return ExtractionResult(k, N, 1, multipliers, eigen, r_poly)


def atkin_lehner_sign(a_p, k: int, p: int) -> int:
    """eps(p) of a newform at its own level, from a_p = -eps(p) p^(k/2-1).

    a_p may be a Cyclotomic (the eigenform of a character of order > 2) if
    its value is rational; otherwise ValueError."""
    if isinstance(a_p, Cyclotomic):
        a_p = a_p.rational_value()
    cand = -Fraction(a_p, p ** (k // 2 - 1))
    if cand == 1:
        return 1
    if cand == -1:
        return -1
    raise ValueError(f"a_p = {a_p} is not +-p^(k/2-1)")
