"""Scenario model shared by the serial reference and the sharded runner.

A :class:`ShardScenario` is a closed description of one simulation: a
topology, simulation parameters, a list of multidestination *jobs* and an
optional static fault schedule.  Both execution paths -- the plain
single-process :func:`run_serial` and the window-synchronized
:class:`~repro.shard.coordinator.ShardSimulation` -- consume the same
scenario and must produce byte-identical traces; the scenario is therefore
deliberately *static-routed*: every job's replication tree is planned once
on the epoch-0 routing tables (via :func:`repro.sim.crossval.multicast_route`),
exactly as the cross-backend validation suite does.  Adaptive tie-breaking
never draws and schemes never replan, so the only nondeterminism left to
control is event ordering -- the thing the shard protocol is about.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.params import SimParams
from repro.routing.updown import UpDownRouting
from repro.sim.crossval import multicast_route, route_steer
from repro.sim.flitsim import FlitRoute
from repro.sim.network import SimNetwork
from repro.sim.tracelog import TraceLog
from repro.sim.worm import Worm
from repro.topology.graph import NetworkTopology
from repro.topology.irregular import generate_irregular_topology

Job = tuple[int, int, tuple[int, ...]]
"""(start_cycle, source_node, destination_nodes)"""


@dataclass(frozen=True)
class ShardScenario:
    """One closed, static-routed simulation scenario.

    ``fault_pairs`` are ``(time, link_id)`` runtime faults, fired with
    :class:`~repro.chaos.injector.FaultInjector` semantics (revoke both
    directional channels, abort touching worms in launch order,
    reconfigure).  ``reconfig_latency`` mirrors the injector knob.
    """

    topo: NetworkTopology
    params: SimParams
    jobs: tuple[Job, ...]
    fault_pairs: tuple[tuple[float, int], ...] = field(default=())
    reconfig_latency: float = 0.0

    def __post_init__(self) -> None:
        starts = [j[0] for j in self.jobs]
        if starts != sorted(starts):
            raise ValueError(
                "jobs must be sorted by start time (worm launch order "
                "defines the fault-abort order; see docs/sharding.md)"
            )

    def plan_routes(self, routing: UpDownRouting) -> list[FlitRoute]:
        """Static replication tree per job, planned on epoch-0 routing.

        ``routing`` is the epoch-0 ``UpDownRouting`` of the caller's network
        (every shard worker builds identical tables, so the plans are
        identical too).
        """
        return [
            multicast_route(self.topo, routing, src, dsts)
            for _start, src, dsts in self.jobs
        ]


def smoke_scenario() -> ShardScenario:
    """The seeded 16-switch / 4-worm multidestination scenario.

    The same scenario ``benchmarks/bench_backends.py`` pins as the CI
    cross-backend smoke baseline; the shard determinism suite reuses it as
    the serial-vs-sharded byte-identity witness.
    """
    params = SimParams(
        adaptive_routing=False, num_switches=16, packet_flits=512
    )
    topo = generate_irregular_topology(params, seed=7)
    jobs = (
        (0, 7, (0, 8, 9, 24)),
        (25, 14, (3, 4, 22, 24)),
        (50, 5, (0, 1, 14, 19)),
        (75, 5, (7, 8, 17, 20)),
    )
    return ShardScenario(topo, params, jobs)


def seeded_scenario(
    num_switches: int,
    num_jobs: int,
    seed: int,
    *,
    hosts_per_switch: int = 2,
    packet_flits: int = 128,
    fanout: int = 4,
    spacing: int = 25,
    link_delay: int = 1,
    switch_delay: int = 1,
) -> ShardScenario:
    """Deterministic cluster-scale scenario generator.

    Draws ``num_jobs`` multidestination sends over a seeded irregular
    topology of ``num_switches`` switches with ``hosts_per_switch`` hosts
    each; job ``i`` starts at ``i * spacing``.  Destination draws retry
    until the merged route is a tree (re-convergent draws are skipped the
    same way for every shard count, keeping the stream stable).
    """
    params = SimParams(
        adaptive_routing=False,
        num_switches=num_switches,
        num_nodes=num_switches * hosts_per_switch,
        packet_flits=packet_flits,
        link_delay=link_delay,
        switch_delay=switch_delay,
    )
    topo = generate_irregular_topology(params, seed=seed)
    net = SimNetwork(topo, params)
    rng = random.Random(seed)
    nodes = topo.num_nodes
    jobs: list[Job] = []
    while len(jobs) < num_jobs:
        src = rng.randrange(nodes)
        dsts = tuple(
            sorted(rng.sample([n for n in range(nodes) if n != src], fanout))
        )
        try:
            multicast_route(topo, net.routing, src, dsts)
        except ValueError:
            continue  # re-convergent draw: skip deterministically
        jobs.append((len(jobs) * spacing, src, dsts))
    return ShardScenario(topo, params, tuple(jobs))


def run_serial(
    scenario: ShardScenario,
) -> tuple[dict[tuple[int, int], float], TraceLog]:
    """Single-process reference execution of a scenario.

    Launches one statically-routed :class:`Worm` per job (labelled
    ``w<i>``), registered with the network so the fault injector sees it,
    and returns ``({(job, node): tail_time}, trace)``.  The trace digest is
    the byte-identity witness the sharded runner is held to.
    """
    from repro.chaos import FaultInjector, FaultSchedule

    net = SimNetwork(scenario.topo, scenario.params)
    net.trace = TraceLog()
    if scenario.fault_pairs:
        injector = FaultInjector(
            net,
            FaultSchedule.from_pairs(list(scenario.fault_pairs)),
            reconfig_latency=scenario.reconfig_latency,
        )
        injector.arm()
    routes = scenario.plan_routes(net.routing)  # epoch 0: no fault has fired
    deliveries: dict[tuple[int, int], float] = {}

    for i, ((start, src, _dsts), route) in enumerate(
        zip(scenario.jobs, routes)
    ):
        def launch(i=i, src=src, route=route) -> None:
            worm = Worm(
                net.engine,
                net.params,
                route_steer(net, route),
                on_delivered=lambda n, t, i=i: deliveries.__setitem__(
                    (i, n), t
                ),
                rng=net.rng,
                label=f"w{i}",
                trace=net.trace,
            )
            net.register_worm(worm)
            worm.start(net.fabric.inject[src], route)

        if start == 0:
            launch()
        else:
            net.engine.at(start, launch)
    net.run()
    return deliveries, net.trace
