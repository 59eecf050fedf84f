"""Verification suites driving the library end to end.

Each suite returns a JSON-ready report {"suite", "passed", "checks": [...]};
the CLI maps reports to exit codes and the acceptance tests assert on them.

The sampled transformation laws (`suite_modular`, `suite_elliptic`) are data
over one evaluator: each draws its points from the seeded stream first and
gives a law, the (image, multiplier) pairs of a point, and `_law_suite`
evaluates F^chi at each block's points and images in one
`numeric.eval_F_chi_points` call in the calling process.  The report lists
the points in the order they were drawn; a point is unsupported with the
first error among its law, F^chi at the point and F^chi at each image.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from functools import partial

from .arith import embed_complex
from .dirichlet import (
    DirichletCharacter,
    enumerate_characters,
    gauss_sum,
    l_value_negative,
    l_value_numeric,
    trivial_character,
    twisted_bernoulli,
)
from .kronecker import conv_g, g_coefficient, kron_fourier, kron_laurent, product_B
from .modforms import (
    ExtractionResult,
    RankError,
    atkin_lehner_sign,
    cusp_limit,
    eisenstein_g_chi,
    eisenstein_h_chi,
    extract_rank_one_cusp,
    hecke_Tp,
)
from .numeric import (
    POINTS_BATCH,
    ConvergenceError,
    atkin_lehner_matrix,
    cusp_period,
    eval_F_chi_points,
    eval_qseries,
    eval_slashed,
    pole_distance,
    twisted_cusp_period,
)
from .periods import (
    assemble_R,
    bivar_scale,
    generating_C,
    petersson_fit,
    rational_snap,
)
from .series import BiJet, QSeries, qs_scale


def _check(name: str, ok: bool, **detail):
    entry = {"name": name, "pass": bool(ok)}
    entry.update(detail)
    return entry


def _report(suite: str, checks: list, unsupported=(), **extra) -> dict:
    """The report of the certified checks.  The ones that could not be
    evaluated are listed under "unsupported" (with a "certified" count) only
    when there are any, so reports without them keep their bytes."""
    out = {"suite": suite, "passed": all(c["pass"] for c in checks), "checks": checks}
    if unsupported:
        out.update(certified=len(checks), unsupported=list(unsupported))
    out.update(extra)
    return out


def even_primitive_characters(N: int) -> list[DirichletCharacter]:
    return [c for c in enumerate_characters(N) if c.is_even() and c.is_primitive()]


def quadratic_character(N: int) -> DirichletCharacter:
    for c in enumerate_characters(N):
        if c.order == 2:
            return c
    raise ValueError(f"no quadratic character mod {N}")


# ---------------------------------------------------------------------------
# Expansion cross-check (A5)

def suite_expansions(N: int, prec: int = 20, degree: int = 10) -> dict:
    checks = []
    for chi in even_primitive_characters(N):
        lau = kron_laurent(chi, prec, degree)
        fou = kron_fourier(chi, prec, degree)
        same = lau == fou
        parity_ok = all(
            fou.entry(r, s).is_zero()
            for r in range(degree + 1)
            for s in range(degree + 1 - r)
            if (r + s) % 2 == 0
        )
        checks.append(
            _check(
                f"laurent_vs_fourier_N{N}_ord{chi.order}",
                same and parity_ok,
                polar=str(chi.scalar(0)),
            )
        )
    return _report("expansions", checks, level=N, prec=prec, degree=degree)


# ---------------------------------------------------------------------------
# The main identity (A1, A3, A4 cores)

HECKE_PRIMES = (2, 3)  # the primes p whose T_p the Hecke certificate checks


def hecke_eigen_checks(f: QSeries, k: int, N: int) -> list:
    out = []
    for p in HECKE_PRIMES:
        tp = hecke_Tp(f, k, N, p)
        expect = qs_scale(f.truncate(tp.prec), f.coeffs[p])
        out.append(_check(f"hecke_T{p}", tp == expect, eigenvalue=str(f.coeffs[p])))
    mult_ok = all(
        f.coeffs[m * n] == f.coeffs[m] * f.coeffs[n]
        for m in range(2, f.prec) for n in range(2, f.prec // m) if math.gcd(m, n) == 1
    )
    out.append(_check("coefficient_multiplicativity", mult_ok))
    return out


def _extract(slice_rows: dict, k: int, chi: DirichletCharacter, prec: int) -> ExtractionResult:
    """extract_rank_one_cusp at weight k; a RankError's message names the
    weight ("at weight k: ...")."""
    try:
        return extract_rank_one_cusp(slice_rows, k, chi, prec)
    except RankError as exc:
        raise RankError(exc.rank, f"at weight {k}: {exc}") from None


def suite_identity(N: int, chi: DirichletCharacter, kmax: int, prec: int = 30) -> dict:
    """Weight-by-weight comparison of the product side against the C side.

    Rank-0 weights must agree exactly; a rank-1 weight must produce a Hecke
    eigenform and Eisenstein multipliers matching the closed-form C side.
    """
    checks = []
    B = product_B(chi, kmax, prec)
    for k in range(2, kmax + 1, 2):
        slice_rows = B.weights.get(k, {})
        extraction = _extract(slice_rows, k, chi, prec)
        cside = generating_C(k, chi, prec)
        mult_ok = extraction.multipliers == cside.multipliers
        checks.append(_check(f"k{k}_eisenstein_multipliers_match", mult_ok))
        if extraction.rank == 0:
            checks.append(_check(f"k{k}_slice_equals_C_exactly", slice_rows == cside.rows))
        else:
            cert = eigenform_certificate(extraction)
            checks.append(_check(f"k{k}_cusp_rank", cert[0]["pass"], rank=extraction.rank))
            checks.extend(_check(f"k{k}_{c['name']}", c["pass"]) for c in cert[1:])
            report = dict(extraction.to_json(), hecke_checks=cert[1:])
            checks.append(_check(f"k{k}_eigenform_report", True, report=report))
    if N == 1:
        expected = {(0, -1): 1, (-1, 0): 1, (-1, -2): -1, (-2, -1): -1}
        checks.append(_check("principal_part", B.principal == expected))
    else:
        checks.append(_check("principal_part_absent", B.principal is None))
    return _report("identity", checks, level=N, kmax=kmax, prec=prec)


def suite_product_routes(N: int, chi: DirichletCharacter, kmax: int, prec: int) -> dict:
    """Closed-form slice assembly against raw-jet substitution and multiplication.

    Each route gives a row for every even weight 2..kmax; a weight agrees
    when both routes have exactly these weights and equal rows there."""
    closed = product_B(chi, kmax, prec, route="closed")
    jets = product_B(chi, kmax, prec, route="jets")
    same_weights = closed.weights.keys() == jets.weights.keys()
    checks = []
    for k in range(2, kmax + 1, 2):
        ok = same_weights and closed.weights.get(k) == jets.weights.get(k)
        checks.append(_check(f"k{k}_routes_agree", ok))
    checks.append(_check("principal_routes_agree", closed.principal == jets.principal))
    return _report("product-routes", checks, level=N, kmax=kmax)


def suite_brackets(N: int, chi: DirichletCharacter, weight_budget: int = 12, prec: int = 20) -> dict:
    """g-coefficient bracket route vs convolution route (A7), exact."""
    checks = []
    for k1 in range(2, weight_budget + 1, 2):
        for k2 in range(2, weight_budget + 1, 2):
            for m in range(0, (weight_budget - k1 - k2) // 2 + 1):
                ok = g_coefficient(k1, k2, m, chi, prec) == conv_g(k1, k2, m, chi, prec)
                checks.append(_check(f"g_{k1}_{k2}_{m}", ok))
    return _report("brackets", checks, level=N)


# ---------------------------------------------------------------------------
# Numeric transformation laws (A6)

def _random_point(rng: random.Random, N: int):
    tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.3))
    while True:
        u = complex(rng.uniform(0.05, 0.35), rng.uniform(-0.3, 0.3))
        v = complex(rng.uniform(-0.35, -0.05), rng.uniform(-0.3, 0.3))
        if pole_distance(u, tau, N) > 0.02 and pole_distance(v, tau, N) > 0.02:
            return tau, u, v


def _law_check(name: str, point: dict, lhs, rhs, tol: float) -> dict:
    """One sampled transformation-law check at a point (as `_point_json`
    gives it): lhs against rhs, relative error."""
    err = abs(lhs - rhs) / max(abs(rhs), 1e-30)
    return _check(
        name,
        err <= tol,
        point=point,
        lhs=complex(lhs),
        rhs=complex(rhs),
        abs_err=abs(lhs - rhs),
        rel_err=err,
        tolerance=tol,
    )


def _point_json(point: tuple) -> dict:
    tau, u, v = point
    return {"tau": complex(tau), "u": complex(u), "v": complex(v)}


# what a law point raises when double precision cannot evaluate it: |q| too
# close to 1 for the theta series, or a value outside the double range
_UNSUPPORTED = (ConvergenceError, OverflowError)


def _unsupported(name: str, point: dict, exc: Exception) -> dict:
    """An unsupported check: its name, its point as JSON and the exception."""
    return {"name": name, "point": point, "reason": f"{type(exc).__name__}: {exc}"}


def _law_report(suite: str, checks: list, unsupported: list, **extra) -> dict:
    """Report of the certified law checks, with their largest relative error."""
    max_err = max((c["rel_err"] for c in checks), default=0.0)
    return _report(suite, checks, unsupported, max_rel_err=max_err, **extra)


def _law_suite(suite: str, points: list, names: list, law, chi: DirichletCharacter, tol: float, **extra) -> dict:
    """Report of a sampled transformation law.  law(i) returns one (image,
    multiplier) pair per name in names[i], the same number at every point,
    and each check compares F^chi at the image with the multiplier times
    F^chi at point i.  The steps of a point run in one order: law(i), F^chi
    at the point, then at each image; the first that raises an _UNSUPPORTED
    exception lists every name of the point as unsupported with that error,
    and a point whose law raises evaluates no F^chi.  The points run in
    blocks of POINTS_BATCH, each block's points and images in one
    eval_F_chi_points call: the points first, then the images slot by slot,
    so that each batch of the evaluator holds like points (interleaved with
    their images, the level-5 modular points evaluated about 1 % slower, in
    54 of 80 alternating repetitions in one process).  A block keeps only
    the (lhs, rhs) pairs of its points: kept to the end, their values made
    the level-5 suites about 1 % slower in cold processes.  The checks are
    built only after the last point: built between the evaluations, they
    made the level-5 suites at 250 points about 2 % slower (paired cold
    processes on one CPU of a 2-CPU virtual machine, Python 3.11.7)."""
    evaluated = []  # (point, names, (lhs, rhs) pairs) of the points evaluated in full
    unsupported = []
    for start in range(0, len(points), POINTS_BATCH):
        block = range(start, min(start + POINTS_BATCH, len(points)))
        laws = []
        for i in block:
            try:
                laws.append(law(i))
            except _UNSUPPORTED as exc:
                laws.append(exc)
        live = [(i, pairs) for i, pairs in zip(block, laws) if not isinstance(pairs, Exception)]
        slots = zip(*(pairs for _, pairs in live))  # per slot, the (image, multiplier) pairs of the live points
        values = eval_F_chi_points([points[i] for i, _ in live] + [w for slot in slots for w, _ in slot], chi)
        n = len(live)
        rows = (values[j::n] for j in range(n))  # F^chi at live point j, then at its images
        for i, pairs in zip(block, laws):
            row = [pairs] if isinstance(pairs, Exception) else next(rows)
            error = next(filter(Exception.__instancecheck__, row), None)
            if error is None:
                base = row[0].value
                sides = [(f.value, multiplier * base) for f, (_, multiplier) in zip(row[1:], pairs)]
                evaluated.append((points[i], names[i], sides))
            elif isinstance(error, _UNSUPPORTED):
                point = _point_json(points[i])
                unsupported.extend(_unsupported(name, point, error) for name in names[i])
            else:
                raise error
    checks = []
    for point, point_names, sides in evaluated:
        point = _point_json(point)  # one dict per point, shared by its checks
        checks.extend(_law_check(name, point, lhs, rhs, tol) for name, (lhs, rhs) in zip(point_names, sides))
    return _law_report(suite, checks, unsupported, **extra)


LAW_SEED = 20240811  # the modular suite's default seed; the elliptic suite's is the next


def suite_modular(
    N: int,
    chi: DirichletCharacter,
    npoints: int = 20,
    seed: int = LAW_SEED,
    tol: float = 1e-9,
) -> dict:
    """Modular transformation law: F^chi((a tau + b)/(c tau + d), u/(..), v/(..)) =
    chi(d) (c tau + d) exp(c u v / (2 pi i (c tau + d))) F^chi(tau, u, v)."""
    gammas = [((1, 0), (N, 1)), ((2, 1), (N, (N + 1) // 2))]
    # ensure integral det-1 matrices on Gamma0(N); for N=5: (2,1;5,3)
    gammas = [g for g in gammas if g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1]
    rng = random.Random(seed)
    points = [_random_point(rng, N) for _ in range(npoints)]
    names = [[f"modular_pt{i}_c{c}d{d}" for _, (c, d) in gammas] for i in range(npoints)]

    def law(i: int) -> list:
        """Per gamma, the image of point i and its multiplier."""
        tau, u, v = points[i]
        out = []
        for (a, b), (c, d) in gammas:
            denom = c * tau + d
            factor = embed_complex(chi(d)) * denom * cmath.exp(c * u * v / (2 * 1j * math.pi * denom))
            out.append((((a * tau + b) / denom, u / denom, v / denom), factor))
        return out

    return _law_suite("modular", points, names, law, chi, tol, level=N, tolerance=tol)


def suite_elliptic(
    N: int,
    chi: DirichletCharacter,
    npoints: int = 20,
    seed: int = LAW_SEED + 1,
    tol: float = 1e-9,
) -> dict:
    """Elliptic shift law with multiplier q^(-N^2 m n) xi^(-N m) eta^(-N n);
    where the multiplier leaves the double range (q^(-169) at N = 13) the
    point is unsupported before F^chi is evaluated."""
    rng = random.Random(seed)
    points = [_random_point(rng, N) for _ in range(npoints)]
    shifts = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)]
    shift = [shifts[i % len(shifts)] for i in range(npoints)]
    names = [[f"elliptic_pt{i}_m{m}n{n}"] for i, (m, n) in enumerate(shift)]

    def law(i: int) -> list:
        """The shifted point i and its multiplier."""
        tau, u, v = points[i]
        m, n = shift[i]
        q = cmath.exp(2 * 1j * math.pi * tau)
        xi = cmath.exp(u)
        eta = cmath.exp(v)
        s, r = (i % 2), ((i // 2) % 2)
        du = 2 * 1j * math.pi * (n * N * tau + s)
        dv = 2 * 1j * math.pi * (m * N * tau + r)
        return [((tau, u + du, v + dv), q ** (-(N**2) * m * n) * xi ** (-N * m) * eta ** (-N * n))]

    return _law_suite("elliptic", points, names, law, chi, tol, level=N, tolerance=tol)


def jet_eval(jet: BiJet, tau: complex, u: complex, v: complex) -> complex:
    """Numeric evaluation of a Kronecker jet (for small u, v)."""
    total = 0j
    if jet.polar != 0:
        polar = embed_complex(jet.polar)
        total += polar / u + polar / v
    for (r, s), series in jet.entries.items():
        val = eval_qseries(series, tau).value
        total += val * u**r * v**s
    return total


# charsum-vs-jet: the (tau, u, v) it samples, the jet's truncation target
# there, and the largest degree the jet may take to reach it
JET_POINTS = (
    (complex(0.1, 1.1), complex(0.06, 0.02), complex(-0.05, 0.03)),
    (complex(-0.2, 0.95), complex(0.04, -0.05), complex(0.03, 0.06)),
    (complex(0.0, 1.25), complex(-0.07, 0.01), complex(0.05, -0.04)),
)
JET_TRUNCATION = 1e-12
JET_MAX_DEGREE = 60


def _jet_degree(N: int) -> int:
    """The smallest even D >= 10 with rho^(D+1) <= JET_TRUNCATION, where
    rho = max(|u|, |v|) N / 2 pi over JET_POINTS is the sample radius over
    the distance 2 pi/N to the nearest pole; ValueError beyond
    JET_MAX_DEGREE."""
    rho = max(max(abs(u), abs(v)) for _, u, v in JET_POINTS) * N / (2 * math.pi)
    degree = 10
    while rho ** (degree + 1) > JET_TRUNCATION:
        degree += 2
        if degree > JET_MAX_DEGREE:
            raise ValueError(
                f"the charsum-vs-jet sample points at level {N} need a jet of degree "
                f"above {JET_MAX_DEGREE} (sample radius {rho:.3f} times the pole distance)")
    return degree


def suite_charsum_vs_jet(N: int, chi: DirichletCharacter, tol: float = 1e-9, prec: int = 20) -> dict:
    """Character-sum evaluation route against the jet expansion at small (u, v).

    The jet's degree follows from the level (`_jet_degree`): its truncation
    error is about rho^(D+1), rho the sample radius over the pole distance
    2 pi/N, and D is the smallest even degree >= 10 that takes it to
    JET_TRUNCATION (10 at N <= 7, 16 at N = 17, 36 at N = 41).  The target is
    fixed, not read from tol; a level whose points need a degree above
    JET_MAX_DEGREE (N >= 59) raises ValueError.
    """
    jet = kron_laurent(chi, prec, _jet_degree(N))
    checks = []
    max_err = 0.0
    for i, ((tau, u, v), direct) in enumerate(zip(JET_POINTS, eval_F_chi_points(JET_POINTS, chi))):
        if isinstance(direct, ArithmeticError):
            raise direct
        via_jet = jet_eval(jet, tau, u, v)
        err = abs(direct.value - via_jet)
        max_err = max(max_err, err)
        checks.append(_check(f"charsum_vs_jet_pt{i}", err <= tol, abs_err=err))
    return _report("charsum-vs-jet", checks, level=N, max_abs_err=max_err, tolerance=tol)


# ---------------------------------------------------------------------------
# Cusp limits (A3 numeric part)

CUSP_LIMITS_PREC = 40  # the q-precision of the series the cusp-limits suite evaluates


def suite_cusp_limits(N: int, chi: DirichletCharacter, weights=(2, 4), tol: float = 1e-8) -> dict:
    """Limits of G and H at the cusps i*infinity and 0, and the W_N slash law
    at two points.  A slash point is listed as unsupported when double
    precision cannot evaluate it, or when the truncation bounds the
    evaluators claim, (B_lhs + |N^(r/2)/W(chi)| B_rhs) / |rhs|, exceed tol."""
    checks = []
    unsupported = []
    tau = 10j
    wchi = embed_complex(gauss_sum(chi))
    for r in weights:
        g = eisenstein_g_chi(r, chi, CUSP_LIMITS_PREC)
        h = eisenstein_h_chi(r, chi, CUSP_LIMITS_PREC)
        # M = 1: plain limits at i*infinity
        lim_g = embed_complex(cusp_limit("G", r, chi, 1))
        val_g = eval_qseries(g, tau).value
        checks.append(_check(f"G{r}_limit_M1", abs(val_g - lim_g) <= tol, abs_err=abs(val_g - lim_g)))
        lim_h1 = embed_complex(cusp_limit("H", r, chi, 1))
        val_h = eval_qseries(h, tau).value
        checks.append(_check(f"H{r}_limit_M1", abs(val_h - lim_h1) <= tol, abs_err=abs(val_h - lim_h1)))
        if N > 1:
            # M = N: (G | W_N)(tau) = (N^(r/2)/W(chi)) H(tau) -> cusp_limit("G", M=N) = 0
            gl = (N ** (r / 2) / wchi) * val_h
            lim_gn = embed_complex(cusp_limit("G", r, chi, N))
            checks.append(_check(f"G{r}_limit_MN", abs(gl - lim_gn) <= tol, abs_err=abs(gl - lim_gn)))
            # (H | W_N)(tau) = N^(-r/2) W(chi) G(tau) -> the nonzero closed form
            hl = wchi / N ** (r / 2) * val_g
            lim_hn = embed_complex(cusp_limit("H", r, chi, N))
            checks.append(_check(f"H{r}_limit_MN", abs(hl - lim_hn) <= tol, abs_err=abs(hl - lim_hn)))
            # pointwise slash check near the W_N fixed point; Im(W_N tau2)
            # falls like 1/N (1.42/N at the second point, where |q| >= 0.95
            # from N = 175 on and eval_qseries raises ConvergenceError)
            wn = atkin_lehner_matrix(N, N)
            for j, tau2 in enumerate((complex(0.1, 1.0 / math.sqrt(N) + 0.1), complex(-0.05, 0.7))):
                name = f"G{r}_slash_pointwise_{j}"
                try:
                    lhs = eval_slashed(g, r, wn, tau2)
                    rhs = eval_qseries(h, tau2)
                except _UNSUPPORTED as exc:
                    unsupported.append(_unsupported(name, {"tau": tau2}, exc))
                    continue
                scale = N ** (r / 2) / wchi
                want = scale * rhs.value
                size = max(abs(want), 1e-20)
                bound = (lhs.bound + abs(scale) * rhs.bound) / size
                if bound > tol:
                    reason = f"precision: claimed relative bound {bound:.1e} exceeds tol {tol:.1e}"
                    unsupported.append({"name": name, "point": {"tau": tau2}, "reason": reason})
                    continue
                err = abs(lhs.value - want) / size
                checks.append(_check(name, err <= tol, rel_err=err))
    return _report("cusp-limits", checks, unsupported, level=N, tolerance=tol)


# ---------------------------------------------------------------------------
# Twisted Bernoulli / L-value identities (A8)

PROP22_WEIGHTS = (2, 4, 6)  # the weights k at which prop22 checks L(chi, 1-k)


def suite_prop22(N: int, tol: float = 1e-10) -> dict:
    chi = quadratic_character(N)
    chibar = chi.conjugate()
    checks = []
    for k in PROP22_WEIGHTS:
        lhs = embed_complex(l_value_negative(chi, k))
        exact = embed_complex(twisted_bernoulli(k, chi)) * (-1 / k)
        checks.append(_check(f"k{k}_l_value_equals_minus_B_over_k", abs(lhs - exact) <= 1e-15))
        w = embed_complex(gauss_sum(chi))
        rhs = (
            2
            * w
            * N ** (k - 1)
            * math.factorial(k - 1)
            / (2j * math.pi) ** k
            * l_value_numeric(chibar, k)
        )
        checks.append(
            _check(f"k{k}_gauss_relation", abs(lhs - rhs) <= tol, abs_err=abs(lhs - rhs))
        )
    return _report("prop22", checks, level=N, tolerance=tol)


# ---------------------------------------------------------------------------
# Periods (A2, A4, A9, A10)

def delta_oracle(prec: int) -> QSeries:
    """q prod (1 - q^n)^24, expanded exactly over the integers."""
    poly = [1] + [0] * (prec - 1)
    for n in range(1, prec):
        # multiply by (1 - q^n)^24 one factor of (1-q^n) at a time
        for _ in range(24):
            for i in range(prec - 1, n - 1, -1):
                poly[i] -= poly[i - n]
    return QSeries(prec, [0] + poly[: prec - 1])


def _functional_equation_residual(r: list, r2: list, k: int, lam, N: int, exponent) -> float:
    """max over n of |r_{k-2-n} - (-1)^(n+1) lam N^exponent(n) r2_n|, relative to max |r|."""
    worst = 0.0
    scale = max(abs(x) for x in r)
    for n in range(k - 1):
        lhs = r[k - 2 - n]
        rhs = (-1) ** (n + 1) * lam * float(N) ** exponent(n) * r2[n]
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def functional_equation_residuals(rn: list[complex], k: int, N: int, eps_N: int) -> float:
    """Untwisted functional equation: r_{k-2-n} = (-1)^(n+1) eps(N) N^(-k/2+1+n) r_n."""
    return _functional_equation_residual(rn, rn, k, eps_N, N, lambda n: -k / 2 + 1 + n)


def twisted_functional_equation_residuals(
    rn_chi: list[complex], rn_chibar: list[complex], k: int, chi: DirichletCharacter
) -> float:
    """Twisted functional equation:
    r_{k-2-n}(f_chi) = (-1)^(n+1) chi(-1) (W/Wbar) N^(2n+2-k) r_n(f_chibar)."""
    N = chi.modulus
    w = embed_complex(gauss_sum(chi))
    wbar = embed_complex(gauss_sum(chi.conjugate()))
    lam = embed_complex(chi(N - 1) if N > 1 else 1) * w / wbar
    return _functional_equation_residual(rn_chi, rn_chibar, k, lam, N, lambda n: 2 * n + 2 - k)


FUNCTIONAL_EQ_TOL = 1e-8  # the largest functional-equation residual that passes
PETERSSON_FIT_TOL = 1e-6  # the largest relative misfit of the Petersson fit that passes


def eigenform_certificate(extraction: ExtractionResult) -> list:
    """Rank one, then the Hecke certificate (hecke_eigen_checks) of the
    extracted eigenform; only the failed rank check when there is none.

    ValueError for an eigenform of precision below 3 max(HECKE_PRIMES): T_p f
    is known to precision // p, and below that T_p f = a_p f compares only
    a_0 and a_1, which agree for every normalized cusp form."""
    k = extraction.weight
    checks = [_check(f"rank_one_at_k{k}", extraction.rank == 1)]
    if extraction.rank == 1:
        f, least = extraction.eigenform, 3 * max(HECKE_PRIMES)
        if f.prec < least:
            raise ValueError(f"the Hecke certificate needs qprec >= {least}, not {f.prec}")
        checks.extend(hecke_eigen_checks(f, k, extraction.level))
    return checks


class CuspPeriods:
    """The rank-one cusp form of one weight and level, with its periods.

    checks holds the eigenform certificate, then the functional-equation
    residuals; eps is its Atkin-Lehner sign eps(N) (1 at N = 1); rn holds
    r_0..r_{k-2}, rn_tw those of the twist by `twist` and rn_twbar those of
    the twist by its conjugate (rn_tw itself for a real twist).  When the
    certificate fails, checks ends with it and the lists are empty.
    """

    __slots__ = ("extraction", "checks", "eps", "rn", "rn_tw", "rn_twbar")

    def __init__(self, extraction: ExtractionResult, checks: list, eps: int, rn: list, rn_tw: list, rn_twbar: list):
        self.extraction, self.checks, self.eps = extraction, checks, eps
        self.rn, self.rn_tw, self.rn_twbar = rn, rn_tw, rn_twbar


def cusp_form_periods(
    chi: DirichletCharacter, k: int, prec: int, twist: DirichletCharacter | None = None
) -> CuspPeriods:
    """The one path from a weight slice to periods at level N, the modulus of
    chi: product_B's weight-k slice -> extraction -> eigenform certificate
    -> eps(N) -> periods -> residuals."""
    N = chi.modulus
    if prec <= N:
        # the Atkin-Lehner sign reads a_N
        raise ValueError(f"the periods workflow at level {N} needs qprec > {N}, not {prec}")
    B = product_B(chi, k, prec)
    extraction = _extract(B.weights.get(k, {}), k, chi, prec)
    checks = eigenform_certificate(extraction)
    if not all(c["pass"] for c in checks):
        return CuspPeriods(extraction, checks, 1, [], [], [])
    f = extraction.eigenform
    eps = 1 if N == 1 else atkin_lehner_sign(f.coeffs[N], k, N)
    rn = [r.value for r in cusp_period(f, k, N, eps)]
    res = functional_equation_residuals(rn, k, N, eps)
    checks.append(_check("functional_eq_residual", res <= FUNCTIONAL_EQ_TOL, residual=res))
    rn_tw = rn_twbar = []
    if twist is not None:
        twbar = twist.conjugate()
        rn_tw = [r.value for r in twisted_cusp_period(f, k, twist)]
        rn_twbar = rn_tw if twbar == twist else [r.value for r in twisted_cusp_period(f, k, twbar)]
        res = twisted_functional_equation_residuals(rn_tw, rn_twbar, k, twist)
        checks.append(
            _check("twisted_functional_eq_residual", res <= FUNCTIONAL_EQ_TOL, residual=res))
    return CuspPeriods(extraction, checks, eps, rn, rn_tw, rn_twbar)


# level -> (weight of its rank-one cusp form, Delta at N = 1; the --char
# selector of the character the periods suite runs), and those selectors
PERIOD_LEVELS = {1: (12, "trivial"), 5: (4, "quadratic")}
NAMED_CHARACTERS = {"trivial": trivial_character, "quadratic": quadratic_character}


def suite_periods(N: int, prec: int = 30) -> dict:
    """Rank-one cusp workflow at level N (cusp_form_periods) and the R fit;
    at N = 1 also the eta-product oracle and the rationality snaps.  The
    twist is the quadratic character mod 5, which at N = 5 is the product
    character itself."""
    if N not in PERIOD_LEVELS:
        raise ValueError(f"the periods suite supports levels 1 and 5, not {N}")
    k, selector = PERIOD_LEVELS[N]
    chi = NAMED_CHARACTERS[selector](N)
    twist = quadratic_character(5)
    cp = cusp_form_periods(chi, k, prec, twist)
    name = f"periods-level{N}"
    f = cp.extraction.eigenform
    checks = cp.checks
    if N == 1 and f is not None:  # the eta-product oracle follows the rank check
        checks.insert(1, _check("delta_matches_eta_product", f == delta_oracle(prec)))
    if not cp.rn:
        return _report(name, checks)

    # the extracted factors absorb 1/(k-2)!; rescale to the R normalization
    r_exact = bivar_scale(cp.extraction.r_poly, Fraction(math.factorial(k - 2)))
    rn_chi = cp.rn_tw if twist == chi else cp.rn  # f_chi = f for the trivial chi at N = 1
    r_unnorm = assemble_R(k, chi, cp.rn, rn_chi)
    fit, dev, unmatched = petersson_fit(r_exact, r_unnorm)
    lam = fit.real
    ok = (max(dev, unmatched) <= PETERSSON_FIT_TOL and lam > 0
          and abs(fit.imag) <= PETERSSON_FIT_TOL * abs(fit))
    checks.append(_check("petersson_fit", ok, norm=lam, deviation=dev))
    if N > 1:
        return _report(name, checks, petersson=lam, **{f"eps{N}": cp.eps})
    if not ok:  # the snaps are normalized by the fitted norm
        return _report(name, checks, petersson=lam)

    # r_n(f_chi) r_m(f) / (W(chi) <f,f>) is Q(chi)-rational for n-m odd once
    # the tau-integral's deterministic i-powers are stripped; the Gauss sum
    # belongs in the normalization (it sits next to <f,f> in the R assembly)
    w5 = embed_complex(gauss_sum(twist))
    snap_fail = 0
    worst_snap = 0.0
    for n in range(k - 1):
        for m in range((n + 1) % 2, k - 1, 2):  # n - m odd
            x = cp.rn_tw[n] * cp.rn[m] / (lam * w5) / (1j) ** ((n + m + 2) % 4)
            tol = 1e-6 * max(abs(x), 1.0)
            if abs(x.imag) > tol:
                snap_fail += 1
                continue
            _, resid = rational_snap(x.real, tol=tol)
            worst_snap = max(worst_snap, resid / max(abs(x), 1.0))
            if resid > tol:
                snap_fail += 1
    checks.append(_check("rationality_snaps", snap_fail == 0, worst=worst_snap))
    return _report(name, checks, petersson=lam)


suite_periods_level5 = partial(suite_periods, 5)
suite_periods_level5.__doc__ = """suite_periods(5, ...) under the name that perfbench/job.py calls.

A partial rather than a wrapper function, so that a traced run records one
suite call, not two."""
