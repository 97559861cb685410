"""The flat up*/down* tables answer exactly like an eager dict oracle.

:class:`UpDownRouting` keeps one flat distance list per destination and
derives next hops per query.  The oracle here is the earlier eager
builder: per destination, a dict of distances and a dict of pre-built hop
tuples, keyed by ``(switch, Phase)``.  Every query -- ``next_hops`` (same
tuples, same order), ``distance``, ``reachable`` and the ``KeyError`` of an
unreachable state -- must agree on every state of every destination, over
hand-built fixtures, seeded irregular topologies in both orientations, the
fuzz corpus, every chaos epoch the corpus degrades to, and planted
(corrupt) orientations.
"""

import pathlib
import random

import pytest

from repro.fuzz import load_corpus
from repro.params import SimParams
from repro.routing.bfs_tree import build_bfs_tree
from repro.routing.updown import Hop, Phase, UpDownRouting
from repro.topology.faults import remove_link
from repro.topology.irregular import generate_irregular_topology
from tests.topo_fixtures import (
    make_chorded_diamond,
    make_diamond,
    make_line,
    make_star,
)

CORPUS = load_corpus(pathlib.Path(__file__).parent / "fuzz_corpus")


def reference_tables(rt: UpDownRouting):
    """Eager oracle: ``(dist, hops)``, one ``{(switch, Phase): ...}`` per dest."""
    S = rt.topo.num_switches
    states = [(s, p) for s in range(S) for p in (Phase.UP, Phase.DOWN)]

    def legal_transitions(switch, phase):
        out = []
        for lk in rt.topo.links_of(switch):
            t = lk.other_end(switch).switch
            if rt.is_up_traversal(lk, switch):
                if phase is Phase.UP:
                    out.append((lk, t, Phase.UP))
            else:
                out.append((lk, t, Phase.DOWN))
        return out

    trans = {st: legal_transitions(*st) for st in states}
    rev = {st: [] for st in states}
    for st, moves in trans.items():
        for lk, t, np_ in moves:
            rev[(t, np_)].append(st)
    dist_tables, hop_tables = [], []
    for dest in range(S):
        dist = {(dest, Phase.UP): 0, (dest, Phase.DOWN): 0}
        frontier = list(dist)
        while frontier:
            nxt = []
            for st in frontier:
                for prev in rev[st]:
                    if prev not in dist:
                        dist[prev] = dist[st] + 1
                        nxt.append(prev)
            frontier = nxt
        hops = {}
        for st, d in dist.items():
            if st[0] == dest:
                hops[st] = ()
                continue
            hops[st] = tuple(
                Hop(lk, t, np_)
                for lk, t, np_ in trans[st]
                if dist.get((t, np_)) == d - 1
            )
        dist_tables.append(dist)
        hop_tables.append(hops)
    return dist_tables, hop_tables


def _key_error_args(call) -> tuple:
    try:
        call()
    except KeyError as exc:
        return exc.args
    raise AssertionError("expected a KeyError")


def assert_matches_reference(rt: UpDownRouting) -> int:
    """Compare every query on every state; return the unreachable count."""
    ref_dist, ref_hops = reference_tables(rt)
    unreachable = 0
    for dest in range(rt.topo.num_switches):
        got_dist, got_hops, missing = {}, {}, []
        for s in range(rt.topo.num_switches):
            for phase in (Phase.UP, Phase.DOWN):
                if rt.reachable(s, phase, dest):
                    got_dist[(s, phase)] = rt.distance(s, dest, phase)
                    got_hops[(s, phase)] = rt.next_hops(s, phase, dest)
                else:
                    missing.append((s, phase))
        assert got_dist == ref_dist[dest], f"distances to {dest}"
        assert got_hops == ref_hops[dest], f"next hops to {dest}"
        for s, phase in missing:
            want = _key_error_args(lambda: ref_hops[dest][(s, phase)])
            assert _key_error_args(
                lambda: rt.next_hops(s, phase, dest)) == want
            assert _key_error_args(
                lambda: rt.distance(s, dest, phase)) == want
        unreachable += len(missing)
    return unreachable


def _corpus_id(entry):
    return entry[0].stem


@pytest.mark.parametrize("orientation", ["bfs", "dfs"])
@pytest.mark.parametrize("topo", [
    make_line(), make_line(6, 2), make_diamond(), make_chorded_diamond(),
    make_star(),
], ids=["line3", "line6", "diamond", "chorded-diamond", "star"])
def test_fixture_topologies(topo, orientation):
    rt = UpDownRouting.build(topo, orientation=orientation)
    # Leaf switches in the DOWN phase cannot climb back: the KeyError path
    # is exercised on every fixture with more than one switch.
    assert assert_matches_reference(rt) > 0


@pytest.mark.parametrize("root", [1, 3])
def test_fixture_non_default_root(root):
    rt = UpDownRouting.build(make_chorded_diamond(), root=root)
    assert_matches_reference(rt)


@pytest.mark.parametrize("orientation", ["bfs", "dfs"])
@pytest.mark.parametrize("switches,seed", [
    (8, 1), (16, 2), (32, 3), (64, 4), (128, 5), (256, 6), (512, 7),
])
def test_seeded_irregular(switches, seed, orientation):
    params = SimParams(num_switches=switches, num_nodes=2 * switches)
    topo = generate_irregular_topology(params, seed=seed)
    rt = UpDownRouting.build(topo, orientation=orientation)
    assert assert_matches_reference(rt) > 0


@pytest.mark.parametrize("entry", CORPUS, ids=_corpus_id)
def test_corpus_topology_and_chaos_epochs(entry):
    _path, sc = entry
    orientation = sc.params.routing_tree
    ordered = sorted(
        range(len(sc.fault_schedule)),
        key=lambda i: (sc.fault_schedule[i][0], i),
    )
    topo = sc.topo
    assert_matches_reference(UpDownRouting.build(topo, orientation=orientation))
    for i in ordered:
        try:
            topo = remove_link(topo, sc.fault_schedule[i][1])
        except ValueError:
            break  # a disconnecting fault is never absorbed
        assert_matches_reference(
            UpDownRouting.build(topo, orientation=orientation))


def test_corpus_has_chaos_epochs():
    assert any(sc.fault_schedule for _, sc in CORPUS)


@pytest.mark.parametrize("seed", range(4))
def test_planted_orientations(seed):
    """Random up ends (cycles, stranded states) set after construction."""
    params = SimParams(num_switches=24, num_nodes=48)
    topo = generate_irregular_topology(params, seed=seed)
    rng = random.Random(seed)
    rt = UpDownRouting(topo=topo, tree=build_bfs_tree(topo, root=0))
    for lk in topo.links:
        rt._up_end[lk.link_id] = rng.choice((lk.a.switch, lk.b.switch))
    rt._compute_tables()
    assert assert_matches_reference(rt) > 0


def test_tables_are_rebuilt_from_up_end():
    """Re-running ``_compute_tables`` after an edit replaces every table."""
    topo = make_chorded_diamond()
    rt = UpDownRouting.build(topo)
    for lk in topo.links:
        rt._up_end[lk.link_id] = (
            lk.b.switch if rt._up_end[lk.link_id] == lk.a.switch
            else lk.a.switch
        )
    rt._compute_tables()
    assert_matches_reference(rt)
