"""Spans and counters attached to the simulator from outside.

Every probe wraps one public function of the ``repro`` package and is
installed at each place a caller looks the function up: module functions
are rebound in every loaded ``repro`` module that holds them by name,
methods are replaced on their class.  Nothing under ``src/`` changes, and
:meth:`Probes.uninstall` puts every original back.

Two probe sets exist.  The *setup* set (always on) times the handful of
coarse set-up calls -- topology generation, fault-schedule drawing and
``SimNetwork`` construction -- and feeds ``setup_s``.  The *traced* set adds
a span or a counter at every layer boundary the per-layer metrics need.
Each span records its name, start, end, parent span and the id of the
simulation call it ran under; a layer's self time is its span time minus
the time of the child spans it contains.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass

SPAN_CAP = 20_000
"""Spans of one name kept for the Chrome trace file (the first ones); the
totals stay exact past the cap."""


@dataclass(frozen=True)
class Probe:
    """One wrapped function: where it lives and what it measures."""

    target: str
    """``module:function`` or ``module:Class.method``."""
    span: str | None
    """Span name (the self-time ledger key), or None for a pure counter."""
    count: str | None = None
    """Counter bumped on every call, beside the span's own call count."""
    setup: bool = False
    """The call is set-up work and counts toward ``setup_s``."""
    required: tuple[str, ...] = ()
    """Workloads on which the probe must fire at least once."""


ALL = ("paper-load", "large-fabric", "collective-openloop", "faulted-reconfig")
COLLECTIVE = ("collective-openloop", "faulted-reconfig")
LOAD = ("paper-load", "large-fabric")

SETUP_PROBES = (
    Probe("repro.topology.irregular:generate_irregular_topology",
          "topology.gen", setup=True, required=ALL),
    Probe("repro.topology.irregular:generate_topology_family",
          "topology.gen", setup=True, required=("paper-load",)),
    Probe("repro.chaos.schedule:FaultSchedule.random",
          "topology.fault_schedule", setup=True,
          required=("faulted-reconfig",)),
    Probe("repro.sim.network:SimNetwork.__init__",
          "network.build", setup=True, required=ALL),
)

TRACED_PROBES = (
    Probe("repro.routing.updown:UpDownRouting.build",
          "routing.build", required=ALL),
    Probe("repro.routing.reachability:ReachabilityTable.build",
          "routing.reach", required=ALL),
    Probe("repro.routing.updown:UpDownRouting.next_hops",
          None, count="routing.lookups", required=ALL),
    Probe("repro.sim.network:SimNetwork.reconfigure",
          "network.reconfigure", required=("faulted-reconfig",)),
    Probe("repro.sim.worm:Worm.start", None, count="sim.worms", required=ALL),
    Probe("repro.sim.host:Host.cpu_task", "host.cpu_task", required=ALL),
    Probe("repro.sim.host:Host.ni_task", "host.ni_task", required=ALL),
    Probe("repro.sim.host:Host.dma", "host.dma", required=ALL),
    Probe("repro.sim.host:Host.launch_worm", "host.launch_worm",
          required=ALL),
    Probe("repro.multicast.kbinomial:NIKBinomialScheme.plan",
          "multicast.plan", count="multicast.plans", required=ALL),
    Probe("repro.multicast.pathworm:PathWormScheme.plan",
          "multicast.plan", count="multicast.plans", required=ALL),
    Probe("repro.multicast.treeworm:plan_tree_worm", "multicast.plan",
          count="multicast.tree_plans", required=ALL),
    Probe("repro.multicast.treeworm:_down_distance_table",
          "multicast.plan", required=ALL),
    Probe("repro.multicast.kbinomial:estimate_fpfs_completion",
          None, count="multicast.fpfs_estimates", required=ALL),
    Probe("repro.multicast.pathworm:best_single_worm",
          None, count="multicast.worm_candidates", required=ALL),
    Probe("repro.workloads.driver:collective_baselines",
          "workloads.baseline", required=COLLECTIVE),
    Probe("repro.metrics.stats:summarize", "metrics", required=LOAD),
    Probe("repro.metrics.quantiles:QuantileDigest.add", "metrics",
          required=COLLECTIVE),
    Probe("repro.metrics.quantiles:QuantileDigest.merge", "metrics"),
    Probe("repro.metrics.quantiles:QuantileDigest.quantile", "metrics",
          required=COLLECTIVE),
    Probe("repro.metrics.quantiles:QuantileDigest.summary", "metrics",
          required=COLLECTIVE),
)

SCHEME_CLASSES = (
    "repro.multicast.kbinomial:NIKBinomialScheme",
    "repro.multicast.pathworm:PathWormScheme",
    "repro.multicast.treeworm:TreeWormScheme",
)
"""Schemes the workloads run; their ``execute`` feeds the output checks."""

COLLECTIVE_OPS = ("broadcast", "allreduce", "barrier")


def _resolve(target: str) -> tuple[object, str]:
    """``module:Name.attr`` -> (owner object, attribute name)."""
    mod_name, _, path = target.partition(":")
    owner: object = importlib.import_module(mod_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Probes:
    """Installed wrappers plus the spans and counters they record."""

    def __init__(self, workload: str, traced: bool,
                 clock=time.perf_counter) -> None:
        self.workload = workload
        self.traced = traced
        self.clock = clock
        """Every span reads this clock (the host-speed sampler's, which
        leaves out the time spent sampling)."""
        self.ctx = ""
        """Id of the simulation call (cell or point) now running."""
        self.stack: list[list] = []
        self.totals: dict[str, list[float]] = {}
        """span name -> [calls, inclusive seconds, self seconds]"""
        self.counts: dict[str, int] = {}
        self.fired: dict[str, int] = {}
        self.spans: list[tuple[str, float, float, str, str]] = []
        self.kept: dict[str, list[int]] = {}
        self.dropped = 0
        self.setup_s = 0.0
        self._setup_depth = 0
        self.cell_s: list[float] = []
        self.on_execute = None
        """Called with ``(net, result)`` after every scheme ``execute``."""
        self.on_cell = None
        """Wraps each experiment cell: ``on_cell(index, call)``."""
        self.reliable: list = []
        """ReliableMulticast layers built during the run (chaos counters)."""
        self.reliable_ops: list = []
        self._undo: list[tuple[object, str, object, bool]] = []
        self.t0 = clock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _span(self, name: str, fn, setup: bool, count: str | None):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        kept = self.kept.setdefault(name, [0])
        stack = self.stack
        counts = self.counts
        perf = self.clock
        spans = self.spans

        def wrapped(*args, **kwargs):
            if count is not None:
                counts[count] = counts.get(count, 0) + 1
            if setup:
                self._setup_depth += 1
            frame = [0.0, name]
            parent = stack[-1][1] if stack else ""
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[0]
                if setup:
                    self._setup_depth -= 1
                    if self._setup_depth == 0:
                        self.setup_s += dur
                if kept[0] < SPAN_CAP:
                    kept[0] += 1
                    spans.append((name, start, end, parent, self.ctx))
                else:
                    self.dropped += 1

        return wrapped

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapped

    def _fire_count(self, key: str, fn):
        fired = self.fired
        fired.setdefault(key, 0)

        def wrapped(*args, **kwargs):
            fired[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _replace(self, owner: object, attr: str, new) -> None:
        """Swap ``owner.attr``; for module functions, every binding of it."""
        if isinstance(owner, type):
            own = attr in owner.__dict__
            self._undo.append((owner, attr, owner.__dict__.get(attr), own))
            setattr(owner, attr, new)
            return
        orig = getattr(owner, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, name, orig, True))
                    setattr(mod, name, new)

    def _wrap(self, target: str, make) -> None:
        """Wrap ``target`` with ``make(fn)``, keeping method descriptors."""
        owner, attr = _resolve(target)
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(getattr(owner, attr))
        self._replace(owner, attr, new)

    def install(self) -> None:
        probes = SETUP_PROBES + (TRACED_PROBES if self.traced else ())
        for p in probes:
            def make(fn, p=p):
                inner = (
                    self._span(p.span, fn, p.setup, p.count)
                    if p.span is not None
                    else self._counter(p.count, fn)
                )
                return self._fire_count(p.target, inner)

            self._wrap(p.target, make)
        self._install_checks()
        if self.traced:
            self._install_layers()

    def _install_checks(self) -> None:
        """Hooks the output checks need, on in every run."""
        for cls_target in SCHEME_CLASSES:
            self._wrap(f"{cls_target}.execute", self._execute_hook)
        self._wrap("repro.experiments.runner:run_cell", self._cell_hook)

    def _execute_hook(self, fn):
        traced = self.traced
        span = self._span("multicast.execute", fn, False,
                          "multicast.executes") if traced else fn

        def execute(scheme, net, source, dests, *args, **kwargs):
            result = span(scheme, net, source, dests, *args, **kwargs)
            if self.on_execute is not None:
                self.on_execute(net, result)
            return result

        return execute

    def _cell_hook(self, fn):
        inner = self._span("experiments.cell", fn, False, None) \
            if self.traced else fn
        index = [0]

        def run_cell(cell):
            i = index[0]
            index[0] += 1
            self.ctx = f"cell:{i}"
            start = self.clock()
            try:
                if self.on_cell is None:
                    return inner(cell)
                return self.on_cell(i, lambda: inner(cell))
            finally:
                self.cell_s.append(self.clock() - start)
                self.ctx = ""

        return run_cell

    def _install_layers(self) -> None:
        """Probes that need more than a plain span or counter."""
        counts = self.counts
        counts.update({"sim.events": 0, "sim.channel_requests": 0,
                       "sim.channel_waits": 0})

        def engine_run(fn):
            span = self._span("sim.loop", fn, False, None)

            def run(engine, *args, **kwargs):
                before = engine.events_fired
                try:
                    return span(engine, *args, **kwargs)
                finally:
                    counts["sim.events"] += engine.events_fired - before

            return run

        self._wrap("repro.sim.engine:Engine.run",
                   lambda fn: self._fire_count("Engine.run", engine_run(fn)))

        def channel_request(fn):
            def request(channel, grant, adaptive_only=False):
                counts["sim.channel_requests"] += 1
                free = (channel.has_free_adaptive_lane if adaptive_only
                        else channel.has_free_lane)
                if not free:
                    counts["sim.channel_waits"] += 1
                return fn(channel, grant, adaptive_only)

            return request

        self._wrap("repro.sim.fabric:Channel.request",
                   lambda fn: self._fire_count("Channel.request",
                                               channel_request(fn)))

        def reliable_init(fn):
            def init(layer, *args, **kwargs):
                fn(layer, *args, **kwargs)
                self.reliable.append(layer)

            return init

        def reliable_send(fn):
            def send(layer, *args, **kwargs):
                op = fn(layer, *args, **kwargs)
                self.reliable_ops.append(op)
                return op

            return send

        self._wrap("repro.chaos.delivery:ReliableMulticast.__init__",
                   lambda fn: self._fire_count("ReliableMulticast",
                                               reliable_init(fn)))
        self._wrap("repro.chaos.delivery:ReliableMulticast.send",
                   reliable_send)

        # The workload driver reaches the collectives through its module
        # alias; a proxy there times exactly the ops the driver admits
        # (allreduce's inner broadcast is not a second op).
        driver = importlib.import_module("repro.workloads.driver")
        real = driver.collectives
        proxy = _ModuleProxy(real)
        for op in COLLECTIVE_OPS:
            key = f"collectives.{op}"
            setattr(proxy, op, self._fire_count(key, self._span(
                "collectives.op", getattr(real, op), False,
                "collectives.ops")))
        self._undo.append((driver, "collectives", real, True))
        driver.collectives = proxy

    def uninstall(self) -> None:
        for owner, attr, orig, own in reversed(self._undo):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def missed_probes(self) -> list[str]:
        """Probes mapped to this workload that never fired."""
        required = {
            p.target for p in SETUP_PROBES + (
                TRACED_PROBES if self.traced else ())
            if self.workload in p.required
        }
        if self.traced:
            required |= {"Engine.run", "Channel.request"}
            if self.workload in COLLECTIVE:
                required |= {"collectives.broadcast"}
            if self.workload == "collective-openloop":
                required |= {"collectives.allreduce", "collectives.barrier"}
            if self.workload == "faulted-reconfig":
                required |= {"ReliableMulticast"}
        return sorted(k for k in required if not self.fired.get(k))

    def self_time(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def inclusive(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, [0, 0.0, 0.0])[0])

    def layer_table(self, wall_s: float) -> str:
        """Per-span self-time table, largest first."""
        rows = sorted(self.totals.items(), key=lambda kv: -kv[1][2])
        lines = [f"{'span':<22}{'calls':>10}{'incl_s':>10}{'self_s':>10}"
                 f"{'self/wall':>10}"]
        accounted = 0.0
        for name, (n, incl, own) in rows:
            accounted += own
            lines.append(f"{name:<22}{int(n):>10}{incl:>10.3f}{own:>10.3f}"
                         f"{own / wall_s:>10.1%}")
        rest = wall_s - accounted
        lines.append(f"{'(outside spans)':<22}{'':>10}{'':>10}{rest:>10.3f}"
                     f"{rest / wall_s:>10.1%}")
        return "\n".join(lines)

    def write_chrome_trace(self, path) -> None:
        """Spans as Chrome trace-event JSON (opens in Perfetto)."""
        events = [
            {
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": round((start - self.t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1, "tid": 1,
                "args": {"parent": parent, "id": ctx},
            }
            for name, start, end, parent, ctx in self.spans
        ]
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"workload": self.workload,
                          "spans_dropped": self.dropped},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _ModuleProxy:
    """Attribute overlay on a module: set names win, the rest fall through."""

    def __init__(self, module) -> None:
        self._module = module

    def __getattr__(self, name: str):
        return getattr(self._module, name)
