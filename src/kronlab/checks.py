"""Verification suites driving the library end to end.

Each suite returns a JSON-ready report {"suite", "passed", "checks": [...]};
the CLI maps reports to exit codes and the acceptance tests assert on them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
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
from .kronecker import KroneckerJet, g_coefficient, kron_fourier, kron_laurent, product_B
from .modforms import (
    ExtractionResult,
    atkin_lehner_sign,
    cusp_limit,
    eisenstein_g_chi,
    eisenstein_h_chi,
    extract_rank_one_cusp,
    hecke_Tp,
)
from .numeric import (
    Context,
    DOUBLE,
    atkin_lehner_matrix,
    cusp_period,
    eval_F_chi,
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
from .series import QSeries, qs_scale


def _check(name: str, ok: bool, **detail):
    entry = {"name": name, "pass": bool(ok)}
    entry.update(detail)
    return entry


def _report(suite: str, checks: list, **extra) -> dict:
    out = {"suite": suite, "passed": all(c["pass"] for c in checks), "checks": checks}
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
        same = lau.jet == fou.jet
        parity_ok = all(
            fou.jet.entry(r, s).is_zero()
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

def _bivar_equal(p: dict, q: dict) -> bool:
    keys = set(p) | set(q)
    return all(p.get(key, 0) == q.get(key, 0) for key in keys)


def _rows_equal(rows_a: dict, rows_b: dict, prec: int) -> bool:
    keys = set(rows_a) | set(rows_b)
    zero = QSeries.zero(prec)
    return all(rows_a.get(key, zero) == rows_b.get(key, zero) for key in keys)


def hecke_eigen_checks(f: QSeries, k: int, N: int, primes=(2, 3)) -> list:
    out = []
    for p in primes:
        tp = hecke_Tp(f, k, N, p)
        expect = qs_scale(f.truncate(tp.prec), f.coeffs[p])
        out.append(_check(f"hecke_T{p}", tp == expect, eigenvalue=str(f.coeffs[p])))
    mult_ok = all(
        f.coeffs[m * n] == f.coeffs[m] * f.coeffs[n]
        for m in range(2, f.prec) for n in range(2, f.prec // m) if math.gcd(m, n) == 1
    )
    out.append(_check("coefficient_multiplicativity", mult_ok))
    return out


def suite_identity(N: int, chi: DirichletCharacter, kmax: int, prec: int = 30) -> dict:
    """Weight-by-weight comparison of the product side against the C side.

    Rank-0 weights must agree exactly; a rank-1 weight must produce a Hecke
    eigenform and Eisenstein multipliers matching the closed-form C side.
    """
    checks = []
    results: dict[int, ExtractionResult] = {}
    B = product_B(chi, kmax, prec)
    for k in range(2, kmax + 1, 2):
        slice_rows = B.weights.get(k, {})
        extraction = extract_rank_one_cusp(slice_rows, k, N, chi, prec)
        results[k] = extraction
        cside = generating_C(k, N, chi, prec)
        mult_ok = all(
            _bivar_equal(
                extraction.multipliers.get(label, {}), cside.multipliers.get(label, {})
            )
            for label in set(extraction.multipliers) | set(cside.multipliers)
        )
        checks.append(_check(f"k{k}_eisenstein_multipliers_match", mult_ok))
        if extraction.rank == 0:
            checks.append(
                _check(f"k{k}_slice_equals_C_exactly", _rows_equal(slice_rows, cside.rows, prec))
            )
        else:
            checks.append(_check(f"k{k}_cusp_rank", extraction.rank == 1, rank=extraction.rank))
            hecke = hecke_eigen_checks(extraction.eigenform, k, N)
            extraction.checks["hecke"] = hecke
            for c in hecke:
                checks.append(_check(f"k{k}_{c['name']}", c["pass"]))
            checks.append(
                _check(f"k{k}_eigenform_report", True, report=extraction.to_json())
            )
    if N == 1:
        expected = {(0, -1): 1, (-1, 0): 1, (-1, -2): -1, (-2, -1): -1}
        ok = B.principal is not None and _bivar_equal(B.principal, expected)
        checks.append(_check("principal_part", ok))
    else:
        checks.append(_check("principal_part_absent", B.principal is None))
    return _report("identity", checks, level=N, kmax=kmax, prec=prec), results


def suite_product_routes(N: int, chi: DirichletCharacter, kmax: int, prec: int) -> dict:
    """Closed-form slice assembly against raw-jet substitution and multiplication."""
    closed = product_B(chi, kmax, prec, route="closed")
    jets = product_B(chi, kmax, prec, route="jets")
    checks = []
    for k in range(2, kmax + 1, 2):
        ok = _rows_equal(closed.weights.get(k, {}), jets.weights.get(k, {}), prec)
        checks.append(_check(f"k{k}_routes_agree", ok))
    pa = closed.principal or {}
    pb = jets.principal or {}
    checks.append(_check("principal_routes_agree", _bivar_equal(pa, pb)))
    return _report("product-routes", checks, level=N, kmax=kmax)


def suite_brackets(N: int, chi: DirichletCharacter, weight_budget: int = 12, prec: int = 20) -> dict:
    """g-coefficient bracket route vs convolution route (A7), exact."""
    checks = []
    for k1 in range(2, weight_budget + 1, 2):
        for k2 in range(2, weight_budget + 1, 2):
            for m in range(0, (weight_budget - k1 - k2) // 2 + 1):
                if k1 + k2 + 2 * m > weight_budget:
                    continue
                try:
                    g_coefficient(k1, k2, m, chi, prec)
                    ok = True
                except AssertionError:
                    ok = False
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


def _law_check(name: str, point: tuple, lhs, rhs, tol: float, ctx: Context) -> dict:
    """One sampled transformation-law check: lhs against rhs, relative error."""
    err = ctx.abs(lhs - rhs) / max(ctx.abs(rhs), 1e-30)
    tau, u, v = point
    return _check(
        name,
        err <= tol,
        point={"tau": complex(tau), "u": complex(u), "v": complex(v)},
        lhs=complex(lhs),
        rhs=complex(rhs),
        abs_err=float(ctx.abs(lhs - rhs)),
        rel_err=float(err),
        tolerance=tol,
    )


def suite_modular(
    N: int,
    chi: DirichletCharacter,
    npoints: int = 20,
    seed: int = 20240811,
    tol: float = 1e-9,
    ctx: Context = DOUBLE,
) -> dict:
    """Modular transformation law: F^chi((a tau + b)/(c tau + d), u/(..), v/(..)) =
    chi(d) (c tau + d) exp(c u v / (2 pi i (c tau + d))) F^chi(tau, u, v)."""
    gammas = [((1, 0), (N, 1)), ((2, 1), (N, (N + 1) // 2))]
    # ensure integral det-1 matrices on Gamma0(N); for N=5: (2,1;5,3)
    gammas = [g for g in gammas if g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1]
    rng = random.Random(seed)
    checks = []
    for i in range(npoints):
        tau, u, v = _random_point(rng, N)
        for (a, b), (c, d) in gammas:
            denom = c * tau + d
            lhs = eval_F_chi((a * tau + b) / denom, u / denom, v / denom, chi, ctx).value
            factor = (
                ctx.to_c(chi(d))
                * denom
                * ctx.exp(c * u * v / (2 * ctx.j * ctx.pi * denom))
            )
            rhs = factor * eval_F_chi(tau, u, v, chi, ctx).value
            checks.append(_law_check(f"modular_pt{i}_c{c}d{d}", (tau, u, v), lhs, rhs, tol, ctx))
    max_err = max((c["rel_err"] for c in checks), default=0.0)
    return _report("modular", checks, level=N, max_rel_err=max_err, tolerance=tol)


def suite_elliptic(
    N: int,
    chi: DirichletCharacter,
    npoints: int = 20,
    seed: int = 20240812,
    tol: float = 1e-9,
    ctx: Context = DOUBLE,
) -> dict:
    """Elliptic shift law with multiplier q^(-N^2 m n) xi^(-N m) eta^(-N n)."""
    rng = random.Random(seed)
    checks = []
    shifts = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)]
    for i in range(npoints):
        tau, u, v = _random_point(rng, N)
        base = eval_F_chi(tau, u, v, chi, ctx).value
        q = ctx.exp(2 * ctx.j * ctx.pi * tau)
        xi = ctx.exp(ctx.to_c(u))
        eta = ctx.exp(ctx.to_c(v))
        m, n = shifts[i % len(shifts)]
        s, r = (i % 2), ((i // 2) % 2)
        du = 2 * ctx.j * ctx.pi * (n * N * tau + s)
        dv = 2 * ctx.j * ctx.pi * (m * N * tau + r)
        lhs = eval_F_chi(tau, u + du, v + dv, chi, ctx).value
        rhs = q ** (-(N**2) * m * n) * xi ** (-N * m) * eta ** (-N * n) * base
        checks.append(_law_check(f"elliptic_pt{i}_m{m}n{n}", (tau, u, v), lhs, rhs, tol, ctx))
    max_err = max((c["rel_err"] for c in checks), default=0.0)
    return _report("elliptic", checks, level=N, max_rel_err=max_err, tolerance=tol)


def jet_eval(jet: KroneckerJet, tau: complex, u: complex, v: complex) -> complex:
    """Numeric evaluation of a Kronecker jet (for small u, v)."""
    total = 0j
    b = jet.jet
    if b.polar_u != 0:
        total += embed_complex(b.polar_u) / u + embed_complex(b.polar_v) / v
    for (r, s), series in b.entries.items():
        val = eval_qseries(series, tau).value
        total += val * u**r * v**s
    return total


def suite_charsum_vs_jet(
    N: int, chi: DirichletCharacter, tol: float = 1e-9, prec: int = 20, degree: int = 10
) -> dict:
    """Character-sum evaluation route against the jet expansion at small (u, v)."""
    jet = kron_laurent(chi, prec, degree)
    checks = []
    pts = [
        (complex(0.1, 1.1), complex(0.06, 0.02), complex(-0.05, 0.03)),
        (complex(-0.2, 0.95), complex(0.04, -0.05), complex(0.03, 0.06)),
        (complex(0.0, 1.25), complex(-0.07, 0.01), complex(0.05, -0.04)),
    ]
    max_err = 0.0
    for i, (tau, u, v) in enumerate(pts):
        direct = eval_F_chi(tau, u, v, chi).value
        via_jet = jet_eval(jet, tau, u, v)
        err = abs(direct - via_jet)
        max_err = max(max_err, err)
        checks.append(_check(f"charsum_vs_jet_pt{i}", err <= tol, abs_err=err))
    return _report("charsum-vs-jet", checks, level=N, max_abs_err=max_err, tolerance=tol)


# ---------------------------------------------------------------------------
# Cusp limits (A3 numeric part)

def suite_cusp_limits(N: int, chi: DirichletCharacter, weights=(2, 4), tol: float = 1e-8, prec: int = 40) -> dict:
    checks = []
    tau = 10j
    wchi = embed_complex(gauss_sum(chi))
    for r in weights:
        g = eisenstein_g_chi(r, chi, prec).series
        h = eisenstein_h_chi(r, chi, prec).series
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
            # pointwise slash check near the W_N fixed point
            wn = atkin_lehner_matrix(N, N)
            for j, tau2 in enumerate((complex(0.1, 1.0 / math.sqrt(N) + 0.1), complex(-0.05, 0.7))):
                lhs = eval_slashed(g, r, wn, tau2).value
                rhs = (N ** (r / 2) / wchi) * eval_qseries(h, tau2).value
                err = abs(lhs - rhs) / max(abs(rhs), 1e-20)
                checks.append(_check(f"G{r}_slash_pointwise_{j}", err <= tol, rel_err=err))
    return _report("cusp-limits", checks, level=N, tolerance=tol)


# ---------------------------------------------------------------------------
# Twisted Bernoulli / L-value identities (A8)

def suite_prop22(N: int = 5, weights=(2, 4, 6), tol: float = 1e-10) -> dict:
    chi = quadratic_character(N)
    chibar = chi.conjugate()
    checks = []
    for k in weights:
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
    """q prod (1 - q^n)^24, expanded exactly."""
    poly = [Fraction(1)] + [Fraction(0)] * (prec - 1)
    for n in range(1, prec):
        # multiply by (1 - q^n)^24 one factor of (1-q^n) at a time
        for _ in range(24):
            for i in range(prec - 1, n - 1, -1):
                poly[i] -= poly[i - n]
    out = [Fraction(0)] + poly[: prec - 1]
    return QSeries(prec, out, weight=12)


def functional_equation_residuals(rn: list[complex], k: int, N: int, eps_N: int) -> float:
    """Untwisted functional equation: r_{k-2-n} = (-1)^(n+1) eps(N) N^(-k/2+1+n) r_n."""
    worst = 0.0
    scale = max(abs(x) for x in rn)
    for n in range(k - 1):
        lhs = rn[k - 2 - n]
        rhs = (-1) ** (n + 1) * eps_N * float(N) ** (-k / 2 + 1 + n) * rn[n]
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def twisted_functional_equation_residuals(
    rn_chi: list[complex], rn_chibar: list[complex], k: int, chi: DirichletCharacter
) -> float:
    """Twisted functional equation:
    r_{k-2-n}(f_chi) = (-1)^(n+1) chi(-1) (W/Wbar) N^(2n+2-k) r_n(f_chibar)."""
    N = chi.modulus
    w = embed_complex(gauss_sum(chi))
    wbar = embed_complex(gauss_sum(chi.conjugate()))
    lam = embed_complex(chi(N - 1) if N > 1 else 1) * w / wbar
    scale = max(abs(x) for x in rn_chi)
    worst = 0.0
    for n in range(k - 1):
        lhs = rn_chi[k - 2 - n]
        rhs = (-1) ** (n + 1) * lam * float(N) ** (2 * n + 2 - k) * rn_chibar[n]
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


@dataclass
class CuspPeriods:
    """The rank-one cusp form of one weight and level, with its periods.

    eps is its Atkin-Lehner sign eps(N) (1 at N = 1); rn holds r_0..r_{k-2}
    and rn_tw those of the twist by `twist`.  Both lists are empty when the
    cusp part does not have rank one.
    """

    extraction: ExtractionResult
    eps: int
    rn: list
    rn_tw: list


def cusp_form_periods(
    N: int, chi: DirichletCharacter, k: int, prec: int, twist: DirichletCharacter | None = None
) -> CuspPeriods:
    """product_B -> rank-one extraction -> Atkin-Lehner sign -> period lists."""
    if prec <= N:
        # the Atkin-Lehner sign reads a_N
        raise ValueError(f"the periods workflow at level {N} needs qprec > {N}, not {prec}")
    B = product_B(chi, k, prec)
    extraction = extract_rank_one_cusp(B.weights.get(k, {}), k, N, chi, prec)
    if extraction.rank != 1:
        return CuspPeriods(extraction, 1, [], [])
    f = extraction.eigenform
    eps = 1 if N == 1 else atkin_lehner_sign(f.coeffs[N], k, N)
    rn = [cusp_period(f, k, N, eps, n).value for n in range(k - 1)]
    rn_tw = []
    if twist is not None:
        rn_tw = [twisted_cusp_period(f, k, twist.modulus, twist, n).value for n in range(k - 1)]
    return CuspPeriods(extraction, eps, rn, rn_tw)


# level -> weight of its rank-one cusp form (Delta at N = 1)
PERIOD_WEIGHTS = {1: 12, 5: 4}


def suite_periods(N: int, prec: int = 30, tol_fun: float = 1e-8, tol_fit: float = 1e-6) -> dict:
    """Rank-one cusp workflow at level N: extraction, Hecke, functional
    equations and the R fit; at N = 1 also the eta-product oracle and the
    rationality snaps.  The twist is the quadratic character mod 5, which at
    N = 5 is the product character itself."""
    if N not in PERIOD_WEIGHTS:
        raise ValueError(f"the periods suite supports levels 1 and 5, not {N}")
    k = PERIOD_WEIGHTS[N]
    chi = trivial_character(1) if N == 1 else quadratic_character(N)
    twist = quadratic_character(5)
    cp = cusp_form_periods(N, chi, k, prec, twist)
    name = f"periods-level{N}"
    checks = [_check(f"rank_one_at_k{k}", cp.extraction.rank == 1)]
    if not cp.rn:
        return _report(name, checks)
    f = cp.extraction.eigenform
    if N == 1:
        checks.append(_check("delta_matches_eta_product", f == delta_oracle(prec)))
    checks.extend(hecke_eigen_checks(f, k, N))
    res1 = functional_equation_residuals(cp.rn, k, N, cp.eps)
    checks.append(_check("functional_eq_residual", res1 <= tol_fun, residual=res1))
    res2 = twisted_functional_equation_residuals(cp.rn_tw, cp.rn_tw, k, twist)
    checks.append(_check("twisted_functional_eq_residual", res2 <= tol_fun, residual=res2))

    # the extracted factors absorb 1/(k-2)!; rescale to the R normalization
    r_exact = bivar_scale(cp.extraction.r_poly, Fraction(math.factorial(k - 2)))
    rn_chi = cp.rn_tw if twist == chi else cp.rn  # f_chi = f for the trivial chi at N = 1
    r_unnorm = assemble_R(k, N, chi, cp.rn, rn_chi, 1.0).coeffs
    lam, dev = petersson_fit(r_exact, r_unnorm, tol_fit)
    checks.append(_check("petersson_fit", dev <= tol_fit and lam > 0, norm=lam, deviation=dev))
    if N > 1:
        return _report(name, checks, petersson=lam, **{f"eps{N}": cp.eps})

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
            snapped, resid = rational_snap(x.real, tol=tol)
            worst_snap = max(worst_snap, resid / max(abs(x), 1.0))
            if resid > tol or snapped.denominator > 10**6:
                snap_fail += 1
    checks.append(_check("rationality_snaps", snap_fail == 0, worst=worst_snap))
    return _report(name, checks, petersson=lam)


suite_periods_level5 = partial(suite_periods, 5)
suite_periods_level5.__doc__ = """suite_periods(5, ...) under the name that perfbench/job.py calls.

A partial rather than a wrapper function, so that a traced run records one
suite call, not two."""
