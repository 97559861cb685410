"""Pinned trace digests of the static-routed serial event runner.

:func:`repro.sim.crossval.run_event_scenario` with a ``trace`` is the
serial reference: one statically routed worm per job, labelled ``w<i>``,
optionally under a static fault schedule.  Its trace digests are pinned so
the event loop, arbitration order and fault/abort/reconfigure sequence
cannot drift silently.
"""

import pytest

from repro.params import SimParams
from repro.sim.crossval import run_event_scenario
from repro.sim.tracelog import TraceLog
from repro.topology.irregular import generate_irregular_topology

SMOKE_SERIAL = (
    "435a4d8e11044aea8c3be50e1ca8a9fb0c2fb643012eb75012ca7e483a6b54b0"
)
SEEDED_SERIAL = (
    "4e32dfdbc4a6cf3282a329b8e829bae7b569ed9bebd3712cba5d72288efbceb4"
)
CHAOS_SERIAL = (
    "33078665b2ff7a34f4fc157567fb19663e0b214ac9a16998a0fa25cfc2f44843"
)

# The seeded 16-switch / 4-worm scenario benchmarks/bench_backends.py also
# pins as its cross-backend smoke baseline.
SMOKE_PARAMS = SimParams(
    adaptive_routing=False, num_switches=16, packet_flits=512
)
SMOKE_JOBS = (
    (0, 7, (0, 8, 9, 24)),
    (25, 14, (3, 4, 22, 24)),
    (50, 5, (0, 1, 14, 19)),
    (75, 5, (7, 8, 17, 20)),
)

# Six 3-destination jobs, 40 cycles apart, on 16 switches with two hosts
# each.  Every job's merged route is a tree.
SEEDED_PARAMS = SimParams(
    adaptive_routing=False,
    num_switches=16,
    num_nodes=32,
    packet_flits=96,
    link_delay=1,
    switch_delay=1,
)
SEEDED_JOBS = (
    (0, 3, (2, 12, 27)),
    (40, 10, (22, 24, 26)),
    (80, 19, (6, 8, 20)),
    (120, 2, (6, 19, 22)),
    (160, 27, (12, 20, 25)),
    (200, 23, (14, 17, 30)),
)

# Both faulted links are already held by their victims at fault time: the
# runner routes statically, so a fault on a link some *future* worm needs
# is outside its contract.
CHAOS_FAULTS = ((43.0, 11), (129.0, 25))


def _run(params, seed, jobs, faults=()):
    topo = generate_irregular_topology(params, seed=seed)
    trace = TraceLog()
    deliveries = run_event_scenario(
        topo, params, jobs, trace=trace, fault_pairs=faults
    )
    return deliveries, trace


SCENARIOS = {
    "smoke": ((SMOKE_PARAMS, 7, SMOKE_JOBS), SMOKE_SERIAL),
    "seeded": ((SEEDED_PARAMS, 2, SEEDED_JOBS), SEEDED_SERIAL),
    "chaos": ((SEEDED_PARAMS, 2, SEEDED_JOBS, CHAOS_FAULTS), CHAOS_SERIAL),
}


def _fault_records(trace):
    return [
        (r.time, r.event, r.worm, r.detail)
        for r in trace.records()
        if r.event in ("fault", "fault-skip", "abort", "reconfig")
    ]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_serial_digest_pinned(name):
    args, pinned = SCENARIOS[name]
    _deliveries, trace = _run(*args)
    assert trace.digest() == pinned


def test_fault_records_follow_serial_sequence():
    """Each fault aborts its victim, then reconfigures, in that order."""
    _deliveries, trace = _run(SEEDED_PARAMS, 2, SEEDED_JOBS, CHAOS_FAULTS)
    assert _fault_records(trace) == [
        (43.0, "fault", "chaos", "link 11 failed"),
        (43.0, "abort", "w1", "link 11 failed"),
        (43.0, "reconfig", "chaos", "epoch 1, 30 links remain"),
        (129.0, "fault", "chaos", "link 25 failed"),
        (129.0, "abort", "w3", "link 25 failed"),
        (129.0, "reconfig", "chaos", "epoch 2, 29 links remain"),
    ]


def test_invalid_fault_skips():
    """An unknown link id is skipped and changes nothing else in the run."""
    deliveries, trace = _run(
        SEEDED_PARAMS, 2, SEEDED_JOBS, ((43.0, 11), (90.0, 999))
    )
    skips = [r for r in trace.records() if r.event == "fault-skip"]
    assert len(skips) == 1 and "link 999" in skips[0].detail
    assert skips[0].time == 90.0

    want_deliveries, want = _run(SEEDED_PARAMS, 2, SEEDED_JOBS, ((43.0, 11),))
    assert deliveries == want_deliveries
    assert [r for r in trace.records() if r.event != "fault-skip"] == list(
        want.records()
    )
