"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria and tolerances are pinned here; every assertion is against either an
exact equality or the stated numeric tolerance.
"""

import time

from kronlab.checks import (
    quadratic_character,
    suite_brackets,
    suite_charsum_vs_jet,
    suite_cusp_limits,
    suite_elliptic,
    suite_expansions,
    suite_identity,
    suite_modular,
    suite_periods,
    suite_prop22,
)
from kronlab.dirichlet import trivial_character
from kronlab.kronecker import product_B
from kronlab.modforms import extract_rank_one_cusp
from kronlab.periods import generating_C
from kronlab.series import QSeries


def _emit(tag, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{tag} {status} ({elapsed:.1f}s) {detail}")
    assert ok, f"{tag} failed: {detail}"


def test_A1_level_one_recovery_exact():
    t0 = time.time()
    chi = trivial_character(1)
    prec = 30
    B = product_B(chi, 14, prec)
    ok = True
    detail = []
    for k in (4, 6, 8, 10, 14):
        slice_rows = B.weights[k]
        extraction = extract_rank_one_cusp(slice_rows, k, chi, prec)
        cside = generating_C(k, chi, prec)
        if extraction.rank != 0:
            ok = False
            detail.append(f"k={k} rank {extraction.rank}")
            continue
        # every monomial is an exact rational multiple of G_k through q^25
        keys = set(slice_rows) | set(cside.rows)
        zero = QSeries.zero(prec)
        if not all(slice_rows.get(key, zero) == cside.rows.get(key, zero) for key in keys):
            ok = False
            detail.append(f"k={k} slice mismatch")
        if extraction.multipliers["+"] != cside.multipliers["+"]:
            mism = {
                key
                for key in set(extraction.multipliers["+"]) | set(cside.multipliers["+"])
                if extraction.multipliers["+"].get(key, 0) != cside.multipliers["+"].get(key, 0)
            }
            if mism:
                ok = False
                detail.append(f"k={k} multiplier mismatch {sorted(mism)[:3]}")
    elapsed = time.time() - t0
    _emit("A1", ok and elapsed < 30, elapsed, "; ".join(detail))


def test_A2_rank_one_cusp_extraction():
    t0 = time.time()
    rep = suite_periods(1, prec=30)
    fails = [c["name"] for c in rep["checks"] if not c["pass"]]
    elapsed = time.time() - t0
    _emit("A2", rep["passed"] and elapsed < 60, elapsed,
          f"petersson={rep.get('petersson'):.6e} fails={fails}")


def test_A3_twisted_identity_no_cusp():
    t0 = time.time()
    chi = quadratic_character(5)
    rep = suite_identity(5, chi, 2, prec=30)
    # rank 0 at weight 2: the slice is compared with the C side exactly
    ok = rep["passed"] and any(c["name"] == "k2_slice_equals_C_exactly" for c in rep["checks"])
    limits = suite_cusp_limits(5, chi, weights=(2,), tol=1e-8)
    ok = ok and limits["passed"]
    elapsed = time.time() - t0
    _emit("A3", ok and elapsed < 30, elapsed,
          f"identity={rep['passed']} limits={limits['passed']}")


def test_A4_twisted_identity_with_cusp():
    t0 = time.time()
    chi = quadratic_character(5)
    rep = suite_identity(5, chi, 4, prec=30)
    rank = next(c["rank"] for c in rep["checks"] if c["name"] == "k4_cusp_rank")
    ok = rep["passed"] and rank == 1
    per = suite_periods(5, prec=30)
    ok = ok and per["passed"]
    elapsed = time.time() - t0
    _emit("A4", ok and elapsed < 120, elapsed,
          f"identity={rep['passed']} periods={per['passed']} "
          f"petersson={per.get('petersson'):.6e}")


def test_A5_expansion_cross_check():
    t0 = time.time()
    ok = True
    counts = []
    for N in (1, 5, 13):
        rep = suite_expansions(N, prec=20, degree=10)
        ok = ok and rep["passed"]
        counts.append(f"N={N}:{len(rep['checks'])}")
    _emit("A5", ok, time.time() - t0, " ".join(counts))


def test_A6_transformation_laws():
    t0 = time.time()
    chi = quadratic_character(5)
    mod = suite_modular(5, chi, npoints=20, tol=1e-9)
    ell = suite_elliptic(5, chi, npoints=20, tol=1e-9)
    jet = suite_charsum_vs_jet(5, chi, tol=1e-9)
    ok = mod["passed"] and ell["passed"] and jet["passed"]
    _emit(
        "A6", ok, time.time() - t0,
        f"modular_max={mod['max_rel_err']:.2e} elliptic_max={ell['max_rel_err']:.2e} "
        f"jet_max={jet['max_abs_err']:.2e}",
    )


def test_A7_bracket_equality():
    t0 = time.time()
    ok = True
    for N in (1, 5):
        chi = trivial_character(1) if N == 1 else quadratic_character(5)
        rep = suite_brackets(N, chi, weight_budget=12, prec=16)
        ok = ok and rep["passed"]
    _emit("A7", ok, time.time() - t0, "all k1+k2+2m <= 12, N in {1,5}")


def test_A8_prop22_numerics():
    t0 = time.time()
    rep = suite_prop22(5, tol=1e-10)
    _emit("A8", rep["passed"], time.time() - t0)


def test_A9_functional_equations():
    t0 = time.time()
    l1 = suite_periods(1, prec=30)
    l5 = suite_periods(5, prec=30)
    res = {}
    for rep, tag in ((l1, "delta"), (l5, "level5")):
        for c in rep["checks"]:
            if c["name"] in ("functional_eq_residual", "twisted_functional_eq_residual"):
                res[f"{tag}.{c['name']}"] = c.get("residual")
    ok = all(v is not None and v <= 1e-8 for v in res.values())
    _emit("A9", ok, time.time() - t0, str({k: f"{v:.1e}" for k, v in res.items()}))


def test_A10_rationality_snaps():
    t0 = time.time()
    rep = suite_periods(1, prec=30)
    snap = next(c for c in rep["checks"] if c["name"] == "rationality_snaps")
    _emit("A10", snap["pass"], time.time() - t0, f"worst={snap.get('worst'):.2e}")
