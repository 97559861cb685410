"""The worm tail solver computes each bound once and agrees with recursion.

:meth:`Worm._refinalize` keeps every final ``send_h(m)`` in the hop's
``bounds`` table and settles it with an iterative walk that returns its
blocking hop.  The oracle here is the earlier solver: the recursive
``_send_bound`` with a call-local memo, re-evaluated from scratch, raising
when a bound still depends on an unsettled hop.  After every finalization
attempt of every worm, on seeded contention scenarios with cut-through and
wormhole buffers, single and replicating worms, a hop must have its release
scheduled exactly when the oracle can evaluate its tail, and every table
entry must equal the oracle's value.

A second set of checks pins the cost model on the pinned cross-validation
scenarios: no (hop, flit index) bound is written twice within a worm, every
scheduled tail was read from the table, and no hop is walked while its own
or its parent's expansion is still pending.
"""

import random

import pytest

from repro.params import SimParams
from repro.routing.updown import UpDownRouting
from repro.sim.crossval import multicast_route, run_event_scenario
from repro.sim.worm import Worm
from repro.topology.irregular import generate_irregular_topology
from tests.topo_fixtures import make_star


class _NotFinal(Exception):
    def __init__(self, blocker) -> None:
        super().__init__("tail-time bound not final")
        self.blocker = blocker


def reference_send_bound(hop, idx: int, memo: dict) -> float:
    """The recursive solver the table replaced, from scratch per call."""
    if hop.h is None:
        raise _NotFinal(hop)
    key = (hop.idx, idx)
    cached = memo.get(key)
    if cached is not None:
        return cached
    grant = hop.h - hop.channel.delay
    best = grant + idx
    if hop.parent is not None:
        best = max(
            best,
            reference_send_bound(hop.parent, idx, memo)
            + hop.parent.channel.delay,
        )
    cap = hop.channel.downstream_buffer + 1
    if idx - cap >= 0 and not hop.terminal:
        if not hop.expanded:
            raise _NotFinal(hop)
        if len(hop.children) == 1:
            child = hop.children[0]
            best = max(
                best,
                reference_send_bound(child, idx - cap, memo)
                + child.channel.delay
                - hop.channel.delay,
            )
    memo[key] = best
    return best


def reference_bound(hop, idx: int) -> float | None:
    """Oracle bound, or ``None`` while it is not yet final."""
    try:
        return reference_send_bound(hop, idx, {})
    except _NotFinal:
        return None


def check_against_reference(worm: Worm) -> None:
    last = worm.length - 1
    for hop in worm._hops:
        tail = reference_bound(hop, last)
        assert hop.release_scheduled == (tail is not None), (
            f"{worm.label} hop {hop.idx}: scheduled={hop.release_scheduled}, "
            f"reference final={tail is not None}"
        )
        for idx, value in hop.bounds.items():
            assert value == reference_bound(hop, idx), (worm.label, hop.idx, idx)
        if tail is not None:
            assert hop.bounds[last] == tail


def seeded_jobs(topo, rng: random.Random, count: int, max_dests: int):
    rt = UpDownRouting.build(topo)
    jobs = []
    while len(jobs) < count:
        src = rng.randrange(topo.num_nodes)
        others = [n for n in range(topo.num_nodes) if n != src]
        dsts = tuple(rng.sample(others, rng.randint(1, max_dests)))
        try:
            multicast_route(topo, rt, src, dsts)
        except ValueError:
            continue  # branches re-converge: not a single worm's tree
        jobs.append((rng.randrange(0, 150), src, dsts))
    return sorted(jobs, key=lambda j: j[0])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("max_dests", [1, 4], ids=["single", "replicating"])
@pytest.mark.parametrize(
    "buffer_flits", [1, 4, 24, 63], ids=["B1", "B4", "B24", "vct"]
)
def test_tail_solver_matches_recursive_reference(
    monkeypatch, seed, max_dests, buffer_flits
):
    params = SimParams(
        adaptive_routing=False, num_switches=8, packet_flits=64,
        input_buffer_flits=buffer_flits,
    )
    topo = generate_irregular_topology(params, seed=seed)
    jobs = seeded_jobs(topo, random.Random(seed * 100 + max_dests), 10,
                       max_dests)
    original = Worm._refinalize
    attempts = []

    def refinalize(self, changed):
        original(self, changed)
        attempts.append(changed.idx)
        check_against_reference(self)

    monkeypatch.setattr(Worm, "_refinalize", refinalize)
    out = run_event_scenario(topo, params, jobs)
    assert len(out) == sum(len(d) for _, _, d in jobs)
    assert attempts


class _WriteOnce(dict):
    """A bound table that fails if any entry is written a second time."""

    def __init__(self) -> None:
        super().__init__()
        self.written: set[int] = set()

    def __setitem__(self, idx: int, value: float) -> None:
        assert idx not in self.written, f"bound at flit {idx} computed twice"
        self.written.add(idx)
        super().__setitem__(idx, value)


SMOKE_PARAMS = SimParams(adaptive_routing=False, num_switches=16,
                         packet_flits=512)
SCENARIOS = {
    # The bench_backends smoke scenario: four 4-destination 512-flit worms.
    "smoke-512": (
        SMOKE_PARAMS,
        lambda: generate_irregular_topology(SMOKE_PARAMS, seed=7),
        [(0, 7, (0, 8, 9, 24)), (25, 14, (3, 4, 22, 24)),
         (50, 5, (0, 1, 14, 19)), (75, 5, (7, 8, 17, 20))],
    ),
    # Two multidestination worms replicating across each other at the hub
    # with 4-flit buffers, plus a staggered unicast.
    "two-replicating": (
        SimParams(adaptive_routing=False, input_buffer_flits=4),
        lambda: make_star(3, hosts_per_switch=2),
        [(0, 0, (2, 4)), (0, 1, (4, 6)), (3, 3, (6,))],
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_each_bound_is_computed_once(monkeypatch, name):
    params, make_topo, jobs = SCENARIOS[name]
    original_new_hop = Worm._new_hop
    original_walk = Worm._walk
    worms: list[Worm] = []
    walks = []

    def new_hop(self, channel, parent):
        hop = original_new_hop(self, channel, parent)
        hop.bounds = _WriteOnce()
        if len(self._hops) == 1:
            worms.append(self)
        return hop

    def walk(hop, idx):
        for h in (hop, hop.parent):
            pending = (h is not None and not h.expanded
                       and idx > h.channel.downstream_buffer)
            assert not pending, f"hop {hop.idx} walked before {h.idx} expanded"
        walks.append((hop.idx, idx))
        return original_walk(hop, idx)

    monkeypatch.setattr(Worm, "_new_hop", new_hop)
    monkeypatch.setattr(Worm, "_walk", staticmethod(walk))
    out = run_event_scenario(make_topo(), params, jobs)
    assert len(out) == sum(len(d) for _, _, d in jobs)
    assert len(worms) == len(jobs) and walks
    last = params.packet_flits - 1
    for worm in worms:
        for hop in worm._hops:
            assert hop.release_scheduled and last in hop.bounds.written
