"""The four benchmark workloads and the checks on their simulated output.

Each workload is a fixed batch of simulation calls (experiment cells or
load/workload points) built from the ``--seed`` argument and run to
completion.  :class:`Checker` wraps every call: it counts the call, catches
what it raises, audits every multicast the call executed, and folds the
call's simulated results into a digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

from repro.analysis.closedform import unicast_message_latency
from repro.experiments.config import QUICK
from repro.experiments.registry import run_experiment
from repro.metrics.quantiles import QuantileDigest
from repro.params import SimParams
from repro.topology import irregular
from repro.traffic import load as traffic_load
from repro.workloads import driver
from repro.workloads.arrivals import arrival_schedule

SCHEMES = ("tree", "path", "ni")

LARGE_FABRIC = SimParams(num_switches=1024, num_nodes=2048)
LARGE_FABRIC_LOAD = 0.002
LARGE_FABRIC_DURATION = 40_000

COLLECTIVE_KINDS = ("broadcast", "allreduce", "barrier")
COLLECTIVE_POINTS = (
    # (label, process, rate in ops/cycle, operations admitted)
    ("poisson", "poisson", 0.0001, 180),
    ("mlstep", "mlstep", 0.0012, 240),
)

FAULTED = SimParams(num_switches=128, num_nodes=256)
FAULTED_RATE = 0.0001
FAULTED_DURATION = 200_000
FAULT_COUNT = 6


def derive_seed(seed: int, *key: object) -> int:
    """Sub-seed for one input of one workload (sha256, platform-stable)."""
    payload = json.dumps([seed, list(key)], separators=(",", ":"))
    return int.from_bytes(hashlib.sha256(payload.encode()).digest()[:4], "big")


class CheckFailed(Exception):
    """A simulated output broke one of the benchmark's output checks."""


class Checker:
    """Runs simulation calls, audits their output, and digests it."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.call_digests: list[tuple[str, str]] = []
        self._executed: list = []
        self._floors: dict[SimParams, float] = {}

    def floor(self, params: SimParams) -> float:
        """No multicast can beat one zero-hop unicast message."""
        if params not in self._floors:
            self._floors[params] = unicast_message_latency(params, 0)
        return self._floors[params]

    def on_execute(self, net, result) -> None:
        self._executed.append((result, self.floor(net.params)))

    def call(self, call_id: str, fn, audit=None):
        """Run one simulation call; ``audit(value)`` returns its digest text.

        A raised error or a failed check counts the call as failed; the
        error is re-raised so the workload stops, as a user's run would.
        """
        self.attempted += 1
        self._executed = []
        try:
            value = fn()
            text = audit(value) if audit is not None else canonical(value)
            text += self._audit_multicasts()
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{call_id}: {type(exc).__name__}: {exc}")
            raise
        finally:
            self._executed = []
        self.call_digests.append(
            (call_id, hashlib.sha256(text.encode()).hexdigest())
        )
        return value

    def _audit_multicasts(self) -> str:
        """Exactly-once delivery and the latency floor, per multicast."""
        lines = []
        for res, floor in self._executed:
            dests = set(res.dests)
            got = set(res.delivery_times)
            if len(dests) != len(res.dests) or not got <= dests:
                raise CheckFailed(
                    f"multicast from {res.source}: deliveries {sorted(got)} "
                    f"outside destinations {sorted(dests)}"
                )
            if res.complete:
                if got != dests:
                    raise CheckFailed(
                        f"multicast from {res.source} complete with "
                        f"{len(got)}/{len(dests)} deliveries"
                    )
                if res.latency < floor:
                    raise CheckFailed(
                        f"multicast latency {res.latency} beats the "
                        f"zero-hop unicast floor {floor}"
                    )
            lines.append(
                f"{res.source}>{','.join(map(str, res.dests))}@"
                f"{res.start_time!r}:{res.complete_time!r}"
            )
        return "\n" + "\n".join(lines)

    def digest(self) -> str:
        h = hashlib.sha256()
        for call_id, d in self.call_digests:
            h.update(f"{call_id}={d}\n".encode())
        return h.hexdigest()


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=repr)


def _check_floor(latency, floor: float, what: str) -> None:
    if latency is not None and latency < floor:
        raise CheckFailed(f"{what} latency {latency} beats the floor {floor}")


# ----------------------------------------------------------------------
# paper-load
# ----------------------------------------------------------------------
def paper_load(seed: int, checker: Checker, probes) -> dict:
    """Figure 10 at the quick profile: 72 load cells at 8-32 switches."""
    profile = dataclasses.replace(QUICK, seed=derive_seed(seed, "paper-load"))
    cells: list[dict] = []
    floor = checker.floor(SimParams())

    def audit_cell(value: dict) -> str:
        if value["completed"] > value["issued"]:
            raise CheckFailed("cell completed more ops than it issued")
        _check_floor(value["mean_latency"], floor, "cell mean")
        cells.append(value)
        return canonical(value)

    probes.on_cell = lambda i, call: checker.call(f"cell:{i}", call,
                                                  audit_cell)
    result = run_experiment("fig10", profile, jobs=1, cache_dir=None)
    finite = [y for s in result.series for y in s.y if y is not None]
    issued = sum(c["issued"] for c in cells)
    completed = sum(c["completed"] for c in cells)
    return {
        "sim_latency_mean_cycles": sum(finite) / len(finite),
        "sim_incomplete_frac": (issued - completed) / issued,
        "sim_latency_p99_cycles": None,
        "sim_deadline_miss_frac": None,
    }


# ----------------------------------------------------------------------
# large-fabric
# ----------------------------------------------------------------------
def large_fabric(seed: int, checker: Checker, probes) -> dict:
    """Three schemes on one 1024-switch fabric at a light load."""
    params = LARGE_FABRIC
    topo = irregular.generate_irregular_topology(
        params, seed=derive_seed(seed, "large-fabric", "topology")
    )
    floor = checker.floor(params)
    points = []
    for scheme in SCHEMES:
        probes.ctx = f"{scheme}@{LARGE_FABRIC_LOAD}"

        def audit(point) -> str:
            if point.completed > point.issued:
                raise CheckFailed("load point completed more than issued")
            _check_floor(point.mean_latency, floor, f"{scheme} mean")
            return repr(point)

        points.append(checker.call(
            probes.ctx,
            lambda: traffic_load.run_load_experiment(
                topo, params, scheme, degree=16,
                effective_load=LARGE_FABRIC_LOAD,
                duration=LARGE_FABRIC_DURATION,
                warmup=LARGE_FABRIC_DURATION // 10,
                seed=derive_seed(seed, "large-fabric", "traffic"),
            ),
            audit,
        ))
    issued = sum(p.issued for p in points)
    completed = sum(p.completed for p in points)
    return {
        "sim_latency_mean_cycles": sum(
            p.mean_latency * p.completed for p in points
        ) / completed,
        "sim_incomplete_frac": (issued - completed) / issued,
        "sim_latency_p99_cycles": None,
        "sim_deadline_miss_frac": None,
    }


# ----------------------------------------------------------------------
# collective-openloop and faulted-reconfig
# ----------------------------------------------------------------------
EXPECTED_DELIVERIES = {
    # per-node completion notices of a whole-machine op on n nodes
    "broadcast": lambda n: n - 1,
    "allreduce": lambda n: n - 1,
    "barrier": lambda n: n,
}


def _workload_points(checker: Checker, probes, topo, params, points) -> list:
    """Run ``(label, kwargs)`` workload points; audit each op record."""
    floor = checker.floor(params)
    reports = []
    for label, kwargs in points:
        probes.ctx = label

        def audit(report) -> str:
            n = topo.num_nodes
            for rec in report.records:
                if not rec.complete:
                    continue
                want = EXPECTED_DELIVERIES[rec.kind](n)
                if rec.delivered != want:
                    raise CheckFailed(
                        f"{rec.kind} op {rec.index} delivered to "
                        f"{rec.delivered} nodes, expected {want}"
                    )
                _check_floor(rec.latency, floor, f"{rec.kind} op")
            if kwargs.get("fault_count") and report.faults_fired == 0:
                raise CheckFailed("no runtime fault fired")
            # The cell runner's own summary, as a user of the cell sees it.
            return canonical(report.to_value()) + report.digest()

        reports.append(checker.call(
            label, lambda: driver.run_workload(topo, params, **kwargs), audit
        ))
    return reports


def _op_metrics(reports) -> dict:
    """Simulated-latency metrics over the measured ops of all points."""
    latencies = []
    measured = missed = 0
    for r in reports:
        measured += r.measured
        missed += r.missed
        latencies += [op.latency for op in r.records
                      if op.admit_time >= r.warmup and op.complete]
    if not latencies:
        raise CheckFailed("no measured op completed")
    return {
        "sim_latency_mean_cycles": math.fsum(latencies) / len(latencies),
        "sim_incomplete_frac": (measured - len(latencies)) / measured,
        "sim_latency_p99_cycles": QuantileDigest(latencies).p99,
        "sim_deadline_miss_frac": missed / measured,
    }


def admission_window(seed: int, rate: float, process: str, ops: int,
                     num_nodes: int) -> float:
    """The admission horizon that admits exactly ``ops`` operations.

    A fixed horizon admits a seed-dependent number of Poisson arrivals;
    ending it at the arrival of op ``ops`` fixes the count, so the seed
    moves the work only through what each op is, not how many there are.
    """
    schedule = arrival_schedule(seed, rate=rate, duration=4 * ops / rate,
                                num_nodes=num_nodes, kinds=COLLECTIVE_KINDS,
                                process=process)
    if len(schedule) <= ops:
        raise ValueError(f"{process} schedule admitted fewer than {ops} ops")
    return schedule[ops].time


def collective_openloop(seed: int, checker: Checker, probes) -> dict:
    """Broadcast+allreduce+barrier mix, Poisson and bursty, 3 schemes."""
    params = SimParams()
    topo = irregular.generate_irregular_topology(params)
    points = []
    for label, process, rate, ops in COLLECTIVE_POINTS:
        point_seed = derive_seed(seed, "collective-openloop", label)
        duration = admission_window(point_seed, rate, process, ops,
                                    topo.num_nodes)
        points += [
            (f"{scheme}/{label}", dict(
                scheme_name=scheme, seed=point_seed,
                rate=rate, duration=duration, warmup=duration / 10,
                kinds=COLLECTIVE_KINDS, process=process,
            ))
            for scheme in SCHEMES
        ]
    reports = _workload_points(checker, probes, topo, params, points)
    return {"reports": reports}


def faulted_reconfig(seed: int, checker: Checker, probes) -> dict:
    """Reliable broadcasts through six runtime link faults, 3 schemes."""
    params = FAULTED
    topo = irregular.generate_irregular_topology(params)
    # Each scheme draws its own traffic and faults.  Host cost varies most
    # with the fault draw; three independent draws average it, where one
    # shared draw would move all three points together.
    points = [
        (scheme, dict(
            scheme_name=scheme,
            seed=derive_seed(seed, "faulted-reconfig", scheme),
            rate=FAULTED_RATE, duration=FAULTED_DURATION,
            warmup=FAULTED_DURATION / 10, kinds=("broadcast",),
            process="mlstep", fault_count=FAULT_COUNT,
        ))
        for scheme in SCHEMES
    ]
    reports = _workload_points(checker, probes, topo, params, points)
    return {"reports": reports}


WORKLOADS = {
    "paper-load": paper_load,
    "large-fabric": large_fabric,
    "collective-openloop": collective_openloop,
    "faulted-reconfig": faulted_reconfig,
}


def finish(summary: dict) -> dict:
    """Turn a workload's raw return into its ``sim_*`` metrics.

    Called after the timed region (and after the probes are removed), so
    the benchmark's own aggregation is never charged to the simulator.
    """
    if "reports" in summary:
        return _op_metrics(summary["reports"])
    return summary
