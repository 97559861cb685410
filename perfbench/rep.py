"""One repetition of one workload, in a fresh process.

Prints one JSON object as its last line of output: host times (clock and,
untraced, scaled by the sampled host speed), peak memory,
the call count, the output checks' verdicts and digests, the simulated
metrics and, with ``--trace 1``, the per-layer metrics.  ``run.py`` starts
this script once per repetition, so the peak memory it reports belongs to
the workload alone.

    python3 perfbench/rep.py --workload paper-load --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys

HERE = pathlib.Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
"""Where a traced repetition writes its Chrome trace and self-time table."""
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
import probes as probing  # noqa: E402
import workloads  # noqa: E402


def layer_metrics(p: probing.Probes) -> dict[str, float]:
    """The per-layer metrics from one traced repetition."""
    c = p.counts
    plans = c.get("multicast.plans", 0) + c.get("multicast.tree_plans", 0)
    executes = p.calls("multicast.execute")
    events = c["sim.events"]
    chaos = {
        name: sum(getattr(layer.net.chaos, name) for layer in p.reliable)
        for name in ("faults_fired", "worms_aborted", "retries", "gave_up")
    }
    ops = p.reliable_ops
    first_try = sum(1 for op in ops if op.complete and op.attempts == 1)
    cells = sorted(p.cell_s)
    host = sum(p.self_time(n) for n in
               ("host.cpu_task", "host.ni_task", "host.dma",
                "host.launch_worm"))
    return {
        "topology.gen_s": p.self_time("topology.gen"),
        "topology.fault_schedule_s": p.self_time("topology.fault_schedule"),
        "routing.build_s": p.self_time("routing.build"),
        "routing.builds": p.calls("routing.build"),
        "routing.reach_s": p.self_time("routing.reach"),
        "routing.lookups": c.get("routing.lookups", 0),
        "network.build_self_s": p.self_time("network.build"),
        "network.builds": p.calls("network.build"),
        "network.reconfigure_s": p.inclusive("network.reconfigure"),
        "network.reconfigures": p.calls("network.reconfigure"),
        "sim.events": events,
        "sim.loop_self_s": p.self_time("sim.loop"),
        "sim.us_per_event": (
            1e6 * p.inclusive("sim.loop") / events if events else 0.0
        ),
        "sim.worms": c.get("sim.worms", 0),
        "sim.channel_requests": c["sim.channel_requests"],
        "sim.channel_waits": c["sim.channel_waits"],
        "host.cpu_tasks": p.calls("host.cpu_task"),
        "host.ni_tasks": p.calls("host.ni_task"),
        "host.dma_transfers": p.calls("host.dma"),
        "host.s": host,
        "multicast.plan_s": p.self_time("multicast.plan"),
        "multicast.plans": plans,
        "multicast.executes": executes,
        "multicast.plan_reuse_ratio": (
            1.0 - plans / executes if executes else 0.0
        ),
        "multicast.fpfs_estimates": c.get("multicast.fpfs_estimates", 0),
        "multicast.worm_candidates": c.get("multicast.worm_candidates", 0),
        "multicast.tree_plans": c.get("multicast.tree_plans", 0),
        "collectives.ops": c.get("collectives.ops", 0),
        "collectives.s": p.self_time("collectives.op"),
        "workloads.baseline_s": p.inclusive("workloads.baseline"),
        "chaos.faults_fired": chaos["faults_fired"],
        "chaos.worms_aborted": chaos["worms_aborted"],
        "chaos.retries": chaos["retries"],
        "chaos.gave_up": chaos["gave_up"],
        "chaos.first_try_ratio": first_try / len(ops) if ops else 0.0,
        "metrics.s": p.self_time("metrics"),
        "experiments.cells": len(cells),
        "experiments.cell_s_p50": cells[len(cells) // 2] if cells else 0.0,
        "experiments.cell_s_max": cells[-1] if cells else 0.0,
    }


def run(workload: str, seed: int, traced: bool) -> dict:
    fn = workloads.WORKLOADS[workload]
    checker = workloads.Checker()
    host = hostspeed.HostSpeed()
    p = probing.Probes(workload, traced, clock=host.clock)
    p.on_execute = checker.on_execute
    p.install()
    raw = None
    if not traced:
        # A traced repetition is not sampled: the samples would land
        # inside its spans.
        host.start()
    start = host.clock()
    try:
        raw = fn(seed, checker, p)
    except Exception as exc:  # reported as a failed call, never swallowed
        if not checker.errors:
            checker.attempted += 1
            checker.failed += 1
            checker.errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        wall_clock_s = host.clock() - start
        if not traced:
            host.stop()
        p.uninstall()
    sim = {}
    if raw is not None:
        try:
            sim = workloads.finish(raw)
        except workloads.CheckFailed as exc:
            checker.failed += 1
            checker.errors.append(f"summary: {exc}")
    missed = p.missed_probes()
    if missed:
        checker.failed += 1
        checker.errors.append(f"probes never fired: {', '.join(missed)}")
    out = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "wall_clock_s": wall_clock_s,
        "setup_clock_s": p.setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "digest": checker.digest(),
        "call_digests": checker.call_digests,
        "sim": sim,
    }
    if not traced:
        scale = host.scale()
        out["speed"] = host.speed()
        out["wall_s"] = wall_clock_s * scale
        out["setup_s"] = p.setup_s * scale
    else:
        out["layers"] = layer_metrics(p)
        out["table"] = p.layer_table(wall_clock_s)
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{workload}-seed{seed}"
        trace_path = stem.with_suffix(".trace.json")
        p.write_chrome_trace(trace_path)
        stem.with_suffix(".layers.txt").write_text(out["table"] + "\n")
        out["trace_file"] = str(trace_path)
        out["spans_dropped"] = p.dropped
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = run(args.workload, args.seed, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
