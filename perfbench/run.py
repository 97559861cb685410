"""Benchmark entry point: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload paper-load --seed 1 --seconds 24 --trace 0

With ``--trace 0`` the workload is repeated, each repetition in a fresh
single-threaded process (``rep.py``), until ``--seconds`` would be
exceeded (at least twice); host-time metrics are medians over the
repetitions, scaled to a nominal host speed (``hostspeed.py``) with the
unscaled clock times printed beside them.  With ``--trace 1`` it runs once
untraced and once traced and reports the per-layer metrics.  Every
repetition checks its simulated output; repetitions of one seed must agree
on the digest of every simulation call.  The last line of output is one JSON object; the exit
status is 1 if any call failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-load", "large-fabric", "collective-openloop",
             "faulted-reconfig")
MIN_REPS = 2
TIME_LIMIT_S = 170.0
"""Whole-run budget; a repetition still running at this point is killed."""

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "wall_clock_s": "s",
    "setup_clock_s": "s",
    "peak_rss_mb": "MB",
    "ops_failed_frac": "ratio",
    "sim_incomplete_frac": "ratio",
    "sim_latency_mean_cycles": "cycles",
    "sim_latency_p99_cycles": "cycles",
    "sim_deadline_miss_frac": "ratio",
}
"""The eight end-to-end metrics plus the unscaled clock times of the two
host-time metrics; BENCHMARK.json lists the gated subset."""


def git_revision() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_rep(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """One repetition in a fresh process; failures come back as data."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    budget = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        return {"failed": 1, "attempted": 1,
                "errors": [f"repetition exceeded the {TIME_LIMIT_S:.0f} s "
                           "run budget"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"failed": 1, "attempted": 1,
                "errors": [f"repetition exited {proc.returncode}: "
                           + " | ".join(tail)]}
    return json.loads(lines[-1])


def compare_digests(reps: list[dict]) -> list[str]:
    """Every repetition of one seed must reproduce every call's digest."""
    errors = []
    done = [r for r in reps if "call_digests" in r]
    if not done:
        return errors
    ref = dict(map(tuple, done[0]["call_digests"]))
    for i, rep in enumerate(done[1:], start=1):
        mine = dict(map(tuple, rep["call_digests"]))
        for call_id in sorted(ref.keys() | mine.keys()):
            if ref.get(call_id) != mine.get(call_id):
                kind = "traced" if rep["traced"] else "untraced"
                errors.append(f"repetition {i} ({kind}) changed the output "
                              f"of {call_id}")
    return errors


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no simulator source at src/repro", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    deadline = time.monotonic() + TIME_LIMIT_S
    start = time.monotonic()
    reps: list[dict] = []
    if args.trace:
        reps = [run_rep(args.workload, args.seed, False, deadline),
                run_rep(args.workload, args.seed, True, deadline)]
    else:
        while True:
            reps.append(run_rep(args.workload, args.seed, False, deadline))
            if "wall_clock_s" not in reps[-1]:
                break
            elapsed = time.monotonic() - start
            per_rep = elapsed / len(reps)
            if len(reps) >= MIN_REPS and elapsed + per_rep > args.seconds:
                break

    mismatches = compare_digests(reps)
    errors = [e for r in reps for e in r["errors"]] + mismatches
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps) + len(mismatches)
    attempted = max(attempted, failed, 1)
    untraced = [r for r in reps if "wall_s" in r and not r["traced"]]
    correct = failed == 0 and bool(untraced)

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} reps={len(reps)}")
    print(f"# python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))} "
          f"machine={platform.machine()} rev={git_revision()}")
    for e in errors:
        print(f"# FAILED {e}")
    if untraced:
        print(f"# digest {untraced[0]['digest']}")
        for key in ("wall_s", "wall_clock_s", "speed"):
            print(f"# {key} per repetition: "
                  + " ".join(f"{r[key]:.3f}" for r in untraced))

    values: dict[str, float | None] = {}
    if untraced:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in untraced),
            "ops_failed_frac": failed / attempted,
            "wall_clock_s": statistics.median(
                r["wall_clock_s"] for r in untraced),
            "setup_clock_s": statistics.median(
                r["setup_clock_s"] for r in untraced),
            **untraced[0]["sim"],
        }
        for name, unit in E2E_UNITS.items():
            v = values.get(name)
            shown = "n/a" if v is None else f"{v:.6g}"
            print(f"{name:<26}{shown:>16} {unit}")

    metrics: dict[str, dict] = {}
    if args.trace:
        traced = [r for r in reps if r.get("traced") and "layers" in r]
        if traced and untraced:
            layers = dict(traced[0]["layers"])
            layers["trace.overhead_ratio"] = (
                traced[0]["wall_clock_s"] / untraced[0]["wall_clock_s"])
            print(traced[0]["table"])
            trace_file = os.path.relpath(traced[0]["trace_file"], ROOT)
            print(f"# chrome trace: {trace_file} "
                  f"({traced[0]['spans_dropped']} spans past the cap)")
            for m in spec["per_layer"]:
                v = layers[m["name"]]
                print(f"{m['name']:<30}{v:>16.6g} {m['unit']}")
                metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        else:
            correct = False
    elif correct:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
    correct = correct and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
