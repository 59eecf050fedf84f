"""kronlab benchmark: cold-process verification jobs driven in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, in turn

Run it from the root of a kronlab checkout; it imports the package from
``src/`` there.  One job runs perfbench/job.py in a fresh interpreter, so the
module-global caches start empty as in a CLI call.  Jobs run one at a time,
each started when the previous one has exited, until --seconds have passed
(at least MIN_JOBS).  After each job, SETUP_PROBES more interpreters run the
set-up alone, so set-up time is sampled across the whole run.  Every job's
output is checked against perfbench/reference.json; a job that exits
non-zero, prints a traceback, fails a check or differs from the reference
counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: setup_s is the
median over every set-up of the run, solve_ref_s (the solve time at the
reference speed of job.SpeedProbe) and peak_rss_mb are medians over the run's
jobs.  Raw wall_s and solve_s are printed in the summary only: on a shared
host their run medians drift by more than any bound.  --trace 1 alternates untraced and traced jobs and reports the
per-layer metrics as medians over the traced jobs, plus trace.overhead_ratio
(traced over untraced median solve_ref_s, minus one).  The last line of
standard output is one JSON object; the lines before it are a readable
summary.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
JOB = os.path.join(HERE, "job.py")
OUT_DIR = os.path.relpath(os.path.join(HERE, ".out"))  # relative: it appears in reports
WORKLOADS = ("identity-n1", "routes-n13", "numeric-n5")
MIN_JOBS = 3  # per run, and per kind (untraced, traced) in a traced run
SETUP_PROBES = 2  # set-up-only interpreters after each job
RUN_LIMIT_S = 165.0  # no job runs past this point of a run (runs must end within 180 s)


class BenchError(RuntimeError):
    pass


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def child_env(src: str) -> dict:
    """The caller's environment without KRONLAB_* presets, importing from `src`.

    The hash seed is pinned so that every job does the same work.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("KRONLAB_")}
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], env: dict, stem: str, timeout: float) -> dict:
    """Run one child to completion; returns its stamps, status, rusage and output."""
    out, err = stem + ".stdout", stem + ".stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    argv = [sys.executable, *args]
    t_spawn = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            os.close(pidfd)
        if not ready:
            raise BenchError(f"job {stem} exceeded {timeout:.0f} s")
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    t_exit = time.perf_counter()
    with open(out) as fh:
        stdout = fh.read()
    with open(err) as fh:
        stderr = fh.read()
    return {
        "t_spawn": t_spawn,
        "t_exit": t_exit,
        "exit": os.waitstatus_to_exitcode(status),
        "maxrss_kb": usage.ru_maxrss,
        "stdout": stdout,
        "stderr": stderr,
    }


def reference_key(workload: str, result: dict) -> str:
    return f"{workload}/char{result['char']}" if workload == "routes-n13" else workload


def run_job(workload, seed, trace, job, env, reference, timeout) -> dict:
    stem = os.path.join(OUT_DIR, f"{workload}.job{job}")
    rec = {"trace": trace, "ok": False}
    try:
        proc = spawn([JOB, workload, str(seed), str(int(trace)), str(job), OUT_DIR], env, stem, timeout)
    except BenchError as exc:  # a job that outlives the run counts as failed
        rec["why"] = str(exc)
        return rec
    lines = proc["stdout"].strip().splitlines()
    if proc["exit"] != 0 or "Traceback" in proc["stderr"] or not lines:
        rec["why"] = f"exit {proc['exit']}: {proc['stderr'].strip()[-300:]}"
        return rec
    try:
        result = json.loads(lines[-1])
    except ValueError:
        rec["why"] = f"no result line: {lines[-1][:200]!r}"
        return rec
    rec.update(
        wall_s=proc["t_exit"] - proc["t_spawn"],
        setup_s=result["t_ready"] - proc["t_spawn"],
        solve_s=result["t_done"] - result["t_ready"],
        solve_ref_s=result["solve_ref_s"],
        peak_rss_mb=proc["maxrss_kb"] / 1024,
        result=result,
    )
    want = reference.get(reference_key(workload, result))
    if not result["passed"]:
        rec["why"] = "a check failed"
    elif result["digest"] != want:
        rec["why"] = f"digest {result['digest']} differs from reference {want}"
    else:
        rec["ok"] = True
    return rec


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kronlab", "__init__.py")):
        raise BenchError(f"no kronlab sources under {src}")
    reference = _load_json(os.path.join(HERE, "reference.json"))
    env = child_env(src)
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in os.listdir(OUT_DIR):
        if name.startswith(workload + "."):
            os.remove(os.path.join(OUT_DIR, name))

    t0 = time.perf_counter()
    warm = spawn([JOB, "--warm-up"], env, os.path.join(OUT_DIR, f"{workload}.warm-up"), RUN_LIMIT_S)
    if warm["exit"] != 0:
        raise BenchError(f"warm-up failed: {warm['stderr'].strip()[-300:]}")
    jobs: list[dict] = []
    setups: list[float] = []
    while True:
        elapsed = time.perf_counter() - t0
        kinds = [j["trace"] for j in jobs]
        enough = all(kinds.count(k) >= MIN_JOBS for k in ({False, True} if trace else {False}))
        if elapsed >= seconds and enough:
            break
        if elapsed >= RUN_LIMIT_S:
            break
        traced = trace and len(jobs) % 2 == 1
        jobs.append(
            run_job(workload, seed, traced, len(jobs), env, reference, RUN_LIMIT_S - elapsed)
        )
        if "setup_s" in jobs[-1]:
            setups.append(jobs[-1]["setup_s"])
        for _ in range(SETUP_PROBES):
            setups.append(setup_only(workload, seed, env))
    return {"workload": workload, "seed": seed, "jobs": jobs, "setups": setups}


def setup_only(workload: str, seed: int, env: dict) -> float:
    """Seconds from spawn to ready of one interpreter that runs the set-up alone."""
    stem = os.path.join(OUT_DIR, f"{workload}.setup")
    proc = spawn([JOB, "--setup-only", workload, str(seed)], env, stem, 60.0)
    lines = proc["stdout"].strip().splitlines()
    if proc["exit"] != 0 or not lines:
        raise BenchError(f"set-up failed: {proc['stderr'].strip()[-300:]}")
    return json.loads(lines[-1])["t_ready"] - proc["t_spawn"]


def timed(run: dict, traced: bool) -> list[dict]:
    """Jobs that ran to completion, correct or not; in a run with no failed
    job these are all the jobs of that kind."""
    return [j for j in run["jobs"] if "result" in j and j["trace"] == traced]


def _median(recs, key):
    return statistics.median(r[key] for r in recs)


def end_to_end(run: dict, spec: dict) -> dict:
    plain = timed(run, False)
    out = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        value = statistics.median(run["setups"]) if name == "setup_s" else _median(plain, name)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def layer_value(layers: dict, metric: str):
    """Per-layer metric `<span>.<stat>`; product_B's `closed_s`/`jets_s` are
    the inclusive times of its per-route spans."""
    span, stat = metric.rsplit(".", 1)
    if stat in ("closed_s", "jets_s"):
        span, stat = f"{span}.{stat[:-2]}", "s"
    return layers.get(span, {}).get(stat, 0)


def per_layer(run: dict, spec: dict) -> dict:
    plain, traced = timed(run, False), timed(run, True)
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_ratio":
            value = _median(traced, "solve_ref_s") / _median(plain, "solve_ref_s") - 1
        else:
            value = statistics.median(layer_value(j["result"]["layers"], name) for j in traced)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


# job fields printed in the summary, besides setup_s
SUMMARY = [("wall_s", "s"), ("solve_s", "s"), ("solve_ref_s", "ref_s"), ("peak_rss_mb", "MB")]


def summary_lines(run: dict) -> list[str]:
    jobs = run["jobs"]
    failed = [j for j in jobs if not j["ok"]]
    lines = [f"== {run['workload']} (seed {run['seed']}): {len(jobs)} cold-process jobs"]
    plain = timed(run, False)
    series = [(name, unit, [j[name] for j in plain]) for name, unit in SUMMARY]
    series.insert(1, ("setup_s", "s", run["setups"]))
    for name, unit, values in series:
        if values:
            lines.append(
                f"{name:<12} median {statistics.median(values):.4f} {unit}"
                f"  (min {min(values):.4f}, max {max(values):.4f}, n={len(values)})"
            )
    lines.append(f"{'fail_ratio':<12} {len(failed) / len(jobs):.4f}  ({len(failed)}/{len(jobs)} jobs failed)")
    errs = [j["result"]["max_rel_err"] for j in plain if "max_rel_err" in j["result"]]
    if errs:
        lines.append(f"{'max_rel_err':<12} median {statistics.median(errs):.3e}  (n={len(errs)})")
    for j in failed:
        lines.append(f"failed job: {j['why']}")
    traced = timed(run, True)
    if traced:
        layers = traced[0]["result"]["layers"]
        total = sum(v.get("self_s", 0.0) for v in layers.values())
        top = sorted(layers.items(), key=lambda kv: -kv[1].get("self_s", 0.0))[:5]
        lines.append("top self time (first traced job): " + ", ".join(
            f"{name} {v.get('self_s', 0.0) / total:.0%}" for name, v in top
        ))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so that spawn() kills the running job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        spec = _load_json("BENCHMARK.json")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        runs = [run_workload(w, args.seed, seconds, bool(args.trace)) for w in names]
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    results = {}
    for run in runs:
        print("\n".join(summary_lines(run)))
        jobs = run["jobs"]
        if not timed(run, False) or (args.trace and not timed(run, True)):
            print(f"benchmark error: no job on {run['workload']} ran to completion", file=sys.stderr)
            return 1
        failed = sum(not j["ok"] for j in jobs)
        metrics = per_layer(run, spec) if args.trace else end_to_end(run, spec)
        results[run["workload"]] = {
            "correct": failed == 0,
            "attempted": len(jobs),
            "failed": failed,
            "metrics": metrics,
        }
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
