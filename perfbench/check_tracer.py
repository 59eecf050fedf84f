"""Checks of the benchmark's span tracer.

    python3 perfbench/check_tracer.py        # from the root of a checkout

Runs one untraced and one traced job per workload (about half a minute) and
checks that:

- tracing does not change the output digest;
- every per-layer metric of BENCHMARK.json is reported on every workload and
  measured (nonzero) on at least one;
- the bypass predictions hold: no numeric evaluation on the exact workloads,
  the jets route only on routes-n13, and next to no Cyclotomic work on
  identity-n1;
- each workload's top self time is the layer it was chosen to load;
- the span file round-trips, and `uninstall` restores every binding.
"""

from __future__ import annotations

import json
import os
import sys

import run
from tracer import Tracer, load_spans, qs_mul_mac


# No workload inverts a Cyclotomic (the exact extractions run over Q), and
# no extraction fails on a workload; check_bindings covers error counting.
IDLE_EVERYWHERE = ["arith.cyclo_inverse.calls", "modforms.extract_rank_one_cusp.errors"]


def expect(ok: bool, message: str):
    if not ok:
        raise AssertionError(message)


def check_bindings():
    """In process: aliases share one wrapper, imported names are rebound, and
    uninstall puts the originals back."""
    sys.path.insert(0, os.path.abspath("src"))
    import kronlab
    import kronlab.checks  # noqa: F401  (the tracer wraps checks.suite_*)
    import kronlab.cli  # noqa: F401
    from kronlab import kronecker, series
    from kronlab.arith import Cyclotomic

    orig_mul, orig_qs_mul = Cyclotomic.__mul__, series.qs_mul
    tracer = Tracer(job=0)
    expect(tracer.install() > len(run.WORKLOADS), "too few bindings wrapped")
    try:
        expect(Cyclotomic.__rmul__ is Cyclotomic.__mul__ is not orig_mul, "__rmul__ alias not wrapped")
        expect(kronecker.qs_mul is series.qs_mul is not orig_qs_mul, "imported qs_mul not wrapped")
        a = series.QSeries(8, [0, 1, 0, 3, 0, 0, 2, 0])
        b = series.QSeries(8, [1, 0, 5, 0, 0, 0, 0, 7])
        z = Cyclotomic.zeta(3)
        _ = a * b, 2 * z, z * z
        try:
            series.theta_op(a, -1)
        except ValueError:
            pass
    finally:
        tracer.uninstall()
    expect(Cyclotomic.__mul__ is orig_mul and series.qs_mul is orig_qs_mul, "uninstall incomplete")
    brute = sum(1 for i in range(8) for j in range(8 - i) if a.coeffs[i] and b.coeffs[j])
    expect(qs_mul_mac(a, b) == brute == tracer.mac, "mac count differs from brute force")
    layers = tracer.summary()
    expect(layers["series.qs_mul"]["calls"] == 1, "QSeries.__mul__ not seen as qs_mul")
    # 2 * z goes through __rmul__, z * z through __mul__
    expect(layers["arith.cyclo_mul"]["calls"] >= 2, "Cyclotomic products not seen")
    expect(layers["series.theta_op"]["errors"] == 1, "exception not counted")


def run_pair(workload: str, spec: dict) -> dict:
    env = run.child_env(os.path.abspath("src"))
    reference = run._load_json(os.path.join(run.HERE, "reference.json"))
    os.makedirs(run.OUT_DIR, exist_ok=True)
    jobs = [run.run_job(workload, 1, trace, int(trace), env, reference, run.RUN_LIMIT_S) for trace in (False, True)]
    for j in jobs:
        expect(j["ok"], f"{workload}: job failed: {j.get('why')}")
    plain, traced = jobs
    expect(plain["result"]["digest"] == traced["result"]["digest"], f"{workload}: tracing changed the output")
    metrics = run.per_layer({"jobs": jobs}, spec)
    expect(set(metrics) == {m["name"] for m in spec["per_layer"]}, f"{workload}: per-layer metrics missing")

    layers = traced["result"]["layers"]
    spans = load_spans(os.path.join(run.OUT_DIR, f"{workload}.job1.spans"))
    expect(len(spans) == sum(v.get("calls", 0) for v in layers.values()), f"{workload}: span file incomplete")
    for s in spans:
        expect(s["start"] <= s["end"] and s["job"] == 1, f"{workload}: bad span {s}")
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            expect(p["start"] <= s["start"] and s["end"] <= p["end"], f"{workload}: child outside parent")
    return {name: m["value"] for name, m in metrics.items()} | {"_layers": layers}


def top_self(layers: dict) -> str:
    return max(layers, key=lambda name: layers[name].get("self_s", 0.0))


def main() -> int:
    spec = run._load_json("BENCHMARK.json")
    check_bindings()
    got = {w: run_pair(w, spec) for w in run.WORKLOADS}
    ident, routes, numeric = (got[w] for w in run.WORKLOADS)

    idle = [m["name"] for m in spec["per_layer"] if not any(got[w][m["name"]] for w in run.WORKLOADS)]
    expect(idle == IDLE_EVERYWHERE, f"zero on every workload: {idle}")
    expect(ident["numeric.eval_F.calls"] == 0 and routes["numeric.eval_F.calls"] == 0,
           "numeric evaluation on an exact workload")
    expect(routes["kronecker.product_B.jets_s"] > 0, "routes-n13 skipped the jets route")
    expect(ident["kronecker.product_B.jets_s"] == 0 and numeric["kronecker.product_B.jets_s"] == 0,
           "jets route outside routes-n13")
    # identity-n1 makes a few hundred Cyclotomic products on order-1 values
    # (character conjugation, twisted Bernoulli numbers) and nothing more
    layers = ident["_layers"]
    total = sum(v.get("self_s", 0.0) for v in layers.values())
    cyclo = ident["arith.cyclo_mul.self_s"] + ident["arith.cyclo_add.self_s"]
    expect(ident["arith.cyclo_mul.calls"] < 1000 and cyclo < 0.01 * total,
           "identity-n1 does Cyclotomic work")

    expect(top_self(ident["_layers"]) == "series.qs_mul", "identity-n1: qs_mul is not the top self time")
    expect(top_self(routes["_layers"]).startswith("arith.cyclo_"), "routes-n13: Cyclotomic is not on top")
    expect(top_self(numeric["_layers"]).startswith("numeric.theta"), "numeric-n5: theta is not on top")
    print(json.dumps({w: {"top_self": top_self(got[w]["_layers"]),
                          "overhead_ratio": got[w]["trace.overhead_ratio"]} for w in run.WORKLOADS}))
    print("tracer checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
