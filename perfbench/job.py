"""One benchmark job, run in a fresh interpreter so kronlab's module-global
caches start empty, as they do for every CLI invocation.

    python3 perfbench/job.py WORKLOAD SEED TRACE JOB OUT_DIR

The job imports kronlab and selects its character (set-up), stamps `ready`,
runs the solve, stamps `done`, and only then checks the output.  The last
line of standard output is one JSON object; the stamps read
`time.perf_counter`, a system-wide monotonic clock, so the parent can compare
them with its own spawn and exit stamps.  TRACE=1 installs the span tracer
before character selection.

During the solve a SpeedProbe times a fixed pure-Python kernel every 50 ms,
and the job reports `solve_ref_s`: the solve's own time rescaled to a machine
that runs the kernel in REF_KERNEL_S.  On a shared host whose speed drifts
from second to second, that figure stays put while raw seconds do not.

    python3 perfbench/job.py --warm-up             # import only (bytecode cache)
    python3 perfbench/job.py --setup-only WORKLOAD SEED

The second form runs the set-up alone and prints its `ready` stamp.
"""

import os
import signal
import sys
import time
from fractions import Fraction

SRC = os.path.abspath("src")
N_POINTS = 250  # numeric-n5: random points per transformation-law suite
ROUTES_ORDER = 6  # routes-n13: order of the even primitive characters mod 13
PROBE_PERIOD_S = 0.05
REF_KERNEL_S = 250e-6  # nominal kernel time; solve_ref_s is in seconds at this speed

_KA = [Fraction(i, i + 3) for i in range(1, 9)]
_KB = [Fraction(7, i + 2) for i in range(8)]


def speed_kernel():
    """A fixed mix of the interpreter work kronlab does (Fraction
    multiply-add, complex floats, dict updates), independent of kronlab, so
    that a change to the program never changes the kernel."""
    c = [0] * 8
    for i, x in enumerate(_KA):
        for j in range(8 - i):
            c[i + j] += x * _KB[j]
    z, d = 0j, {}
    for k in range(1, 200):
        z = z * 0.5 + complex(k, -k) / k
        d[k & 31] = d.get(k & 31, 0) + k * k
    return c, z, d


class SpeedProbe:
    """Times speed_kernel at the start, every PROBE_PERIOD_S of wall time
    (SIGALRM), and at the end of an interval.

    Work done over the interval is its length times the time-average of the
    speed, and the kernel samples that speed uniformly in time:
    work ~ (elapsed - probe time) * mean(1 / kernel time).  The handler runs
    between bytecodes of the main thread; it touches no kronlab state.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, *_):
        t = time.perf_counter()
        speed_kernel()
        self.samples.append(time.perf_counter() - t)

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def ref_seconds(self, elapsed: float) -> float:
        """`elapsed` seconds of the interval, less the probe's own time, at
        the reference speed."""
        rate = sum(1 / c for c in self.samples) / len(self.samples)
        return (elapsed - sum(self.samples)) * rate * REF_KERNEL_S


def _import_kronlab():
    import kronlab
    import kronlab.checks
    import kronlab.cli

    if not os.path.realpath(kronlab.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"kronlab imported from {kronlab.__file__}, not from {SRC}")
    return kronlab


def setup_identity_n1(kronlab, seed, out_dir):
    """Level 1 has a single character, so the seed selects nothing."""
    if len(kronlab.enumerate_characters(1)) != 1:
        raise SystemExit("level 1 should have exactly one character")
    out = os.path.join(out_dir, "identity-n1.report.json")
    argv = ["verify", "--level", "1", "--suite", "identity",
            "--kmax", "20", "--qprec", "60", "--out", out]

    def solve():
        return {"exit": kronlab.cli.main(argv), "out": out}

    return solve, {"char": 0}


def setup_routes_n13(kronlab, seed, out_dir):
    # two Galois-conjugate characters that do the same work
    cands = [
        (i, c)
        for i, c in enumerate(kronlab.enumerate_characters(13))
        if c.order == ROUTES_ORDER and c.is_even() and c.is_primitive()
    ]
    if len(cands) != 2:
        raise SystemExit(f"expected two order-{ROUTES_ORDER} characters mod 13")
    index, chi = cands[seed % 2]

    def solve():
        return {
            "report": kronlab.checks.suite_product_routes(13, chi, kmax=8, prec=60),
            # re-assembled from the solve's warm caches when the output is checked
            "closed_product": lambda: kronlab.product_B(chi, 8, 60, route="closed"),
        }

    return solve, {"char": index}


def setup_numeric_n5(kronlab, seed, out_dir):
    chars = [c for c in kronlab.enumerate_characters(5) if c.is_even() and c.is_primitive()]
    if len(chars) != 1:
        raise SystemExit("expected one even primitive character mod 5")
    chi5 = chars[0]
    checks = kronlab.checks

    def solve():
        return {"reports": [
            checks.suite_modular(5, chi5, npoints=N_POINTS, seed=seed),
            checks.suite_elliptic(5, chi5, npoints=N_POINTS, seed=seed + 1),
            checks.suite_periods_level5(30),
        ]}

    return solve, {"char": kronlab.enumerate_characters(5).index(chi5)}


SETUPS = {
    "identity-n1": setup_identity_n1,
    "routes-n13": setup_routes_n13,
    "numeric-n5": setup_numeric_n5,
}


def _sha256(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


def outcome_digest(workload: str, outcome: dict) -> dict:
    """passed flag and digest of the output that the reference pins.

    identity-n1: the report file with its timestamp blanked (byte identity).
    routes-n13: the report plus the closed-route product B it compared, which
    depends on the character (the report alone does not).
    numeric-n5: the check names and pass flags; max_rel_err guards the numbers.
    """
    import json
    import re

    if workload == "identity-n1":
        with open(outcome["out"], "rb") as fh:
            text = fh.read()
        passed = outcome["exit"] == 0 and json.loads(text)["passed"]
        size = len(text)
        text = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', text)
        return {"passed": passed, "digest": _sha256(text), "report_bytes": size}
    if workload == "routes-n13":
        report = outcome["report"]
        product = outcome["closed_product"]().to_json()
        text = json.dumps({"report": report, "closed_product": product}, sort_keys=True).encode()
        return {"passed": report["passed"], "digest": _sha256(text)}
    reports = outcome["reports"]
    flags = [[r["suite"], c["name"], c["pass"]] for r in reports for c in r["checks"]]
    return {
        "passed": all(r["passed"] for r in reports),
        "digest": _sha256(json.dumps(flags).encode()),
        "max_rel_err": max(r["max_rel_err"] for r in reports if "max_rel_err" in r),
    }


def main(argv) -> int:
    import json

    if argv == ["--warm-up"]:
        _import_kronlab()
        return 0
    if argv[0] == "--setup-only":
        workload, seed = argv[1], int(argv[2])
        SETUPS[workload](_import_kronlab(), seed, os.path.dirname(os.path.abspath(__file__)))
        print(json.dumps({"t_ready": time.perf_counter()}))
        return 0
    workload, seed, trace, job, out_dir = argv
    seed, trace, job = int(seed), trace == "1", int(job)
    kronlab = _import_kronlab()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(job)
        tracer.install()
    solve, info = SETUPS[workload](kronlab, seed, out_dir)
    t_ready = time.perf_counter()
    probe = SpeedProbe()
    probe.start()
    outcome = solve()
    probe.stop()
    t_done = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()

    result = {
        "t_ready": t_ready,
        "t_done": t_done,
        "solve_ref_s": probe.ref_seconds(t_done - t_ready),
        "probe_n": len(probe.samples),
        **info,
        **outcome_digest(workload, outcome),
    }
    if tracer is not None:
        layers = tracer.summary()
        if "report_bytes" in result:
            layers["cli"] = {"report_bytes": result["report_bytes"]}
        if "max_rel_err" in result:
            layers["numeric"] = {"max_rel_err": result["max_rel_err"]}
        result["layers"] = layers
        tracer.write(os.path.join(out_dir, f"{workload}.job{job}.spans"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
