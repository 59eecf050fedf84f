"""Eisenstein families, level raising, Hecke operators, cusp data and
rank-one cusp extraction on Gamma0(N) for square-free N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, gcd

from . import linalg
from .arith import Cyclotomic, bernoulli_number
from .dirichlet import DirichletCharacter, gauss_sum, twisted_bernoulli
from .ntheory import divisors, is_squarefree, prime_divisors
from .series import PrecisionError, QSeries, qs_rescale, qs_scale


# ---------------------------------------------------------------------------
# Atkin-Lehner sign characters

@dataclass(frozen=True)
class SignCharacter:
    """Multiplicative sign map on divisors of a square-free level.

    eps(M) is the product of the per-prime signs over p | M; the group law is
    N1 * N2 = N1 N2 / (N1, N2)^2.
    """

    level: int
    signs: tuple[tuple[int, int], ...]  # sorted (prime, +-1)

    def __post_init__(self):
        if not is_squarefree(self.level):
            raise ValueError("sign characters need a square-free level")
        if tuple(p for p, _ in self.signs) != prime_divisors(self.level):
            raise ValueError("signs must cover exactly the primes of the level")
        if any(s not in (1, -1) for _, s in self.signs):
            raise ValueError("signs must be +-1")

    def __call__(self, M: int) -> int:
        if self.level % M:
            raise ValueError(f"{M} does not divide level {self.level}")
        out = 1
        for p, s in self.signs:
            if M % p == 0:
                out *= s
        return out

    def sign(self, p: int) -> int:
        for q, s in self.signs:
            if q == p:
                return s
        raise ValueError(f"{p} is not a prime of the level")

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


def star_law(n1: int, n2: int) -> int:
    g = gcd(n1, n2)
    return n1 * n2 // (g * g)


# ---------------------------------------------------------------------------
# Eisenstein series

@dataclass
class EisensteinForm:
    kind: str
    weight: int
    series: QSeries
    char: DirichletCharacter | None = None
    eps: SignCharacter | None = None
    is_zero: bool = False


def _sigma_table(k: int, prec: int) -> list:
    out = [0] * prec
    for d in range(1, prec):
        dk = d ** (k - 1)
        for n in range(d, prec, d):
            out[n] += dk
    return out


@lru_cache(maxsize=None)
def eisenstein_g(k: int, prec: int) -> EisensteinForm:
    """G_k = -B_k/2k + sum sigma_{k-1}(n) q^n on SL_2(Z)."""
    if k < 2 or k % 2:
        raise ValueError("G_k needs even k >= 2")
    coeffs = _sigma_table(k, prec)
    coeffs[0] = -bernoulli_number(k) / (2 * k)
    return EisensteinForm("G", k, QSeries(prec, coeffs, weight=k))


def _parity_ok(chi: DirichletCharacter, k: int) -> bool:
    return chi.is_even() == (k % 2 == 0)


@lru_cache(maxsize=None)
def eisenstein_g_chi(k: int, chi: DirichletCharacter, prec: int) -> EisensteinForm:
    """G_{k,chi}: constant -B_{k,conj(chi)}/2k, coefficients sum_{d|n} conj(chi)(d) d^(k-1).

    A parity-violating pair yields the zero form with is_zero set.
    """
    if not _parity_ok(chi, k):
        return EisensteinForm("G_chi", k, QSeries.zero(prec, weight=k), chi, is_zero=True)
    chibar = chi.conjugate()
    coeffs: list = [0] * prec
    for d in range(1, prec):
        v = chibar.scalar(d)
        if not v:
            continue
        term = v * (d ** (k - 1))
        for n in range(d, prec, d):
            coeffs[n] = coeffs[n] + term
    coeffs[0] = Fraction(-1, 2 * k) * twisted_bernoulli(k, chibar)
    return EisensteinForm("G_chi", k, QSeries(prec, coeffs, weight=k), chi)


@lru_cache(maxsize=None)
def eisenstein_h_chi(k: int, chi: DirichletCharacter, prec: int) -> EisensteinForm:
    """H_{k,chi}: coefficients sum_{d|n} chi(n/d) d^(k-1).

    The constant term is 0 for N > 1; at N = 1 the form equals G_k, so the
    constant is -B_k/2k there (chi(0) carries the distinction).
    """
    if not _parity_ok(chi, k):
        return EisensteinForm("H_chi", k, QSeries.zero(prec, weight=k), chi, is_zero=True)
    coeffs: list = [0] * prec
    for d in range(1, prec):
        dk = d ** (k - 1)
        for n in range(d, prec, d):
            v = chi.scalar(n // d)
            if v:
                coeffs[n] = coeffs[n] + v * dk
    if chi.modulus == 1:
        coeffs[0] = -bernoulli_number(k) / (2 * k)
    return EisensteinForm("H_chi", k, QSeries(prec, coeffs, weight=k), chi)


def level_raise(f: QSeries, k: int, n2: int, eps2: SignCharacter) -> QSeries:
    """L^{eps2}_{k,N2}: f -> sum_{d | N2} eps2(d) d^(k/2) f(q^d)."""
    if not is_squarefree(n2):
        raise ValueError("level raising needs a square-free target")
    if k % 2:
        raise ValueError("even weight required")
    out = QSeries.zero(f.prec, f.weight)
    for d in divisors(n2):
        out = out + qs_scale(qs_rescale(f, d), eps2(d) * d ** (k // 2))
    return out


@lru_cache(maxsize=None)
def eisenstein_g_eps(k: int, N: int, eps: SignCharacter, prec: int) -> EisensteinForm:
    """G_{k,N}^eps, the level-raised G_k attached to a sign character."""
    series = level_raise(eisenstein_g(k, prec).series, k, N, eps)
    return EisensteinForm("G_eps", k, series, eps=eps)


def hecke_Tp(f: QSeries, k: int, N: int, p: int) -> QSeries:
    """T_p on q-expansions; the p^(k-1) a(n/p) term is dropped when p | N."""
    if f.prec < p:
        raise PrecisionError("need precision >= p for T_p")
    out_prec = f.prec // p
    out = []
    for n in range(out_prec):
        c = f.coeffs[n * p]
        if N % p and n % p == 0:
            c = c + p ** (k - 1) * f.coeffs[n // p]
        out.append(c)
    return QSeries(out_prec, out, f.weight)


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


def slice_cusp_data(k: int, N: int, chi: DirichletCharacter) -> dict[int, dict]:
    """Constant terms of (weight-k product slice | W_M) at i*infinity, M | N.

    Exact bivariate Laurent polynomials; at N = 1 the three contributing
    pieces coincide and simply add up.
    """
    chibar = chi.conjugate()
    out: dict[int, dict] = {}

    def pair_sum(first_char, second_char, scale):
        rows: dict = {}
        for r in range(0, k + 1, 2):
            s = k - r
            bs = twisted_bernoulli(s, first_char)
            br = twisted_bernoulli(r, second_char)
            if bs == 0 or br == 0:
                continue
            c = bs * br * Fraction(1, 4 * factorial(s) * factorial(r)) * scale
            for key, sgn in (
                ((k - 2, r - 1), -1),
                ((r - 1, k - 2), -1),
                ((s - 1, 0), 1),
                ((0, s - 1), 1),
            ):
                rows[key] = rows.get(key, Fraction(0)) + sgn * c
        return rows

    for M in divisors(N):
        rows: dict = {}

        def accumulate(part):
            for key, val in part.items():
                rows[key] = rows.get(key, Fraction(0)) + val

        if M == 1:
            accumulate(pair_sum(chi, chibar, Fraction(1)))
        if M == N:
            accumulate(pair_sum(chibar, chi, Fraction(1, N ** ((k - 2) // 2))))
        if N == 1:
            from .dirichlet import trivial_character

            triv = trivial_character(1)
            accumulate(pair_sum(triv, triv, Fraction(2)))
        out[M] = {key: val for key, val in rows.items() if val != 0}
    return out


# ---------------------------------------------------------------------------
# Local Euler factors

@dataclass
class LocalLFactor:
    """Euler factor at ell as numerator/denominator polynomials in X = ell^(-s)."""

    prime: int
    numerator: list
    denominator: list  # constant term 1

    def expand(self, order: int) -> list:
        """Power-series coefficients of numerator/denominator up to X^order."""
        num = list(self.numerator) + [0] * (order + 1 - len(self.numerator))
        den = list(self.denominator) + [0] * (order + 1 - len(self.denominator))
        if den[0] != 1:
            raise ValueError("denominator constant term must be 1")
        out = [0] * (order + 1)
        for n in range(order + 1):
            acc = num[n]
            for j in range(1, n + 1):
                acc = acc - den[j] * out[n - j]
            out[n] = acc
        return out


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] = out[i + j] + x * y
    return out


def local_factor(kind: str, data: dict, ell: int) -> LocalLFactor:
    """Euler factors for G_{k,chi}, H_{k,conj(chi)} and Hecke forms.

    kind = "G": 1/((1-X)(1 - conj(chi)(ell) ell^(k-1) X)), degenerating to
    1/(1-X) at ell | N; kind = "H": the conjugate-twist mirror with
    1/(1 - ell^(k-1) X) at ell | N; kind = "hecke": newform factor at level
    N1 with the oldform factor (1 + eps2(ell) ell^(k/2) X) for ell | N2.
    """
    if kind in ("G", "H"):
        k = data["k"]
        chi = data["chi"]
        N = chi.modulus
        chibar = chi.conjugate()
        lk = ell ** (k - 1)
        if kind == "G":
            if N % ell == 0:
                den = [1, -1]
            else:
                den = _poly_mul([1, -1], [1, -(chibar(ell) * lk)])
        else:
            if N % ell == 0:
                den = [1, -lk]
            else:
                den = _poly_mul([1, -chibar(ell)], [1, -lk])
        return LocalLFactor(ell, [1], den)
    if kind == "hecke":
        k = data["k"]
        n1 = data["N1"]
        n2 = data.get("N2", 1)
        num = [1]
        if n1 % ell == 0:
            eps1 = data["eps1"]
            den = [1, eps1.sign(ell) * ell ** (k // 2 - 1)]
        else:
            den = [1, -data["a_ell"], ell ** (k - 1)]
        if n2 % ell == 0:
            eps2 = data["eps2"]
            num = [1, eps2.sign(ell) * ell ** (k // 2)]
        return LocalLFactor(ell, num, den)
    raise ValueError(f"unknown local factor kind {kind!r}")


def petersson_ratio(a_f: dict[int, Fraction], k: int, eps2: SignCharacter, n2: int) -> Fraction:
    """<f,f>_N / <f1,f1>_{N1} = prod_{p | N2} 2 (p + eps2(p) a_f(p) p^(1-k/2) + 1)."""
    if not is_squarefree(n2):
        raise ValueError("square-free N2 required")
    out = Fraction(1)
    for p in prime_divisors(n2):
        out *= 2 * (p + eps2.sign(p) * Fraction(a_f[p], p ** (k // 2 - 1)) + 1)
    return out


@dataclass
class SelfNorm:
    """<G_{k,N}^eps, G_{k,N}^eps> as (coefficient in Q(i)) * omega_plus."""

    ratio: Fraction
    gk_coeff: Cyclotomic  # <G_k, G_k> = gk_coeff * omega_plus
    omega_power: int = 1

    @property
    def coeff(self) -> Cyclotomic:
        return self.gk_coeff * self.ratio


def eisenstein_selfnorm(k: int, N: int, eps: SignCharacter) -> SelfNorm:
    """Regularized self-norm of the Eisenstein family, carried symbolically in omega_plus."""
    if k == 2 and eps.is_trivial():
        raise ValueError("k = 2 with trivial sign character is excluded")
    ratio = Fraction(2) ** len(prime_divisors(N))
    for p in prime_divisors(N):
        s = eps.sign(p)
        ratio *= (1 + s * p ** (k // 2)) * (1 + s * Fraction(1, p ** (k // 2 - 1)))
    i_pow = Cyclotomic.zeta(4, (k - 1) % 4)
    gk = i_pow * Fraction(-bernoulli_number(k), k) * Fraction(1, 2 ** (k - 1))
    return SelfNorm(ratio=ratio, gk_coeff=gk)


# ---------------------------------------------------------------------------
# Rank-one cusp extraction

@dataclass
class ExtractionResult:
    weight: int
    level: int
    rank: int
    multipliers: dict  # eps label -> {(a,b): exact scalar}
    eigenform: QSeries | None = None
    r_poly: dict | None = None  # {(a,b): exact scalar}, slice normalization
    checks: dict = field(default_factory=dict)

    def to_json(self):
        from .arith import scalar_to_json

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
            "hecke_checks": self.checks.get("hecke", []),
        }


class RankError(ValueError):
    def __init__(self, rank, msg):
        self.rank = rank
        super().__init__(msg)


def extract_rank_one_cusp(
    slice_rows: dict,
    k: int,
    N: int,
    chi: DirichletCharacter,
    prec: int,
) -> ExtractionResult:
    """Split a weight-k slice into its Eisenstein combination and a rank-one cusp part.

    The Eisenstein multiplier of each monomial is solved from the exact cusp
    values of the slice at all W_M (the closed-form cusp data), which are free
    of cusp-form contamination; the constant-term consistency of the
    remainder and its exact rank factorization over-determine the solve.
    """
    eps_list = sign_characters(N)
    if k == 2:
        eps_list = [e for e in eps_list if not e.is_trivial()]
    forms = [eisenstein_g_eps(k, N, e, prec) for e in eps_list]
    ms = divisors(N)
    gk0 = -bernoulli_number(k) / (2 * k)
    matrix = [
        [
            Fraction(e(M)) * _prod(1 + e.sign(p) * p ** (k // 2) for p in prime_divisors(N)) * gk0
            for e in eps_list
        ]
        for M in ms
    ]
    cusp_data = slice_cusp_data(k, N, chi)

    keys = set(slice_rows)
    for M in ms:
        keys |= set(cusp_data[M])
    multipliers = {e.label(): {} for e in eps_list}
    remainder_rows = {}
    for key in sorted(keys):
        rhs = [cusp_data[M].get(key, Fraction(0)) for M in ms]
        if eps_list:
            lam = linalg.solve(matrix, rhs)
        else:
            if any(r != 0 for r in rhs):
                raise RankError(-1, "nonzero cusp data with empty Eisenstein basis")
            lam = []
        row = slice_rows.get(key, QSeries.zero(prec))
        for lam_e, form, e in zip(lam, forms, eps_list):
            if lam_e != 0:
                multipliers[e.label()][key] = lam_e
                row = row - qs_scale(form.series, lam_e)
        if row.coeffs[0] != 0:
            raise RankError(-1, f"remainder at {key} has a constant term")
        if not row.is_zero():
            remainder_rows[key] = row

    if not remainder_rows:
        return ExtractionResult(k, N, 0, multipliers)

    # exact rank of the remainder matrix
    mat = [list(q.coeffs) for q in remainder_rows.values()]
    rk = linalg.rank(mat)
    if rk > 1:
        raise RankError(rk, f"cusp remainder has rank {rk} > 1")

    pivot_key = next(iter(sorted(remainder_rows)))
    pivot = remainder_rows[pivot_key]
    a1 = pivot.coeffs[1]
    if a1 == 0:
        raise RankError(1, "pivot cusp row has a(1) = 0")
    inv_a1 = a1.inverse() if isinstance(a1, Cyclotomic) else Fraction(1) / Fraction(a1)
    eigen = qs_scale(pivot, inv_a1)
    eigen = QSeries(eigen.prec, eigen.coeffs, weight=k)
    r_poly = {}
    for key, row in remainder_rows.items():
        # row = factor * eigen exactly, with factor = row[1] (eigen has a(1) = 1)
        factor = row.coeffs[1]
        for n in range(prec):
            if row.coeffs[n] != factor * eigen.coeffs[n]:
                raise RankError(2, f"row {key} is not proportional to the pivot")
        r_poly[key] = factor
    return ExtractionResult(k, N, 1, multipliers, eigen, r_poly)


def _prod(it):
    out = Fraction(1)
    for x in it:
        out *= x
    return out


def atkin_lehner_sign(a_p: Fraction, k: int, p: int) -> int:
    """eps(p) of a newform at its own level, from a_p = -eps(p) p^(k/2-1)."""
    cand = -Fraction(a_p, p ** (k // 2 - 1))
    if cand == 1:
        return 1
    if cand == -1:
        return -1
    raise ValueError(f"a_p = {a_p} is not +-p^(k/2-1)")
