"""Up*/down* routing (Autonet) on an irregular switch graph.

Every link gets an *up* end: (1) the end whose switch is closer to the BFS
root, or (2) the end with the lower switch id when both ends are at the same
level.  A legal route traverses zero or more links in the up direction
followed by zero or more links in the down direction -- a packet may never go
up after having gone down.  Because the directed "up" links form a DAG, the
rule is deadlock-free.

This module answers, for any (switch, routing phase, destination switch)
triple, which next hops lie on a *minimal* legal route; both the adaptive
and the deterministic routing policies consult it.  :meth:`UpDownRouting.build`
stores one flat list of minimal legal hop counts per destination, indexed by
the state ``2*switch + phase``, plus each state's legal moves; a next-hop
query keeps the moves that land one hop closer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.routing.bfs_tree import BfsTree, build_bfs_tree
from repro.topology.graph import NetworkTopology, SwitchLink


class Phase(enum.Enum):
    """Routing phase of a packet under the up*/down* rule."""

    UP = 0
    """The packet has only traversed up links so far (may still turn down)."""

    DOWN = 1
    """The packet has traversed a down link (must keep going down)."""


@dataclass(frozen=True)
class Hop:
    """One candidate next hop on a minimal legal route."""

    link: SwitchLink
    to_switch: int
    next_phase: Phase


@dataclass
class UpDownRouting:
    """Routing tables for the up*/down* scheme.

    Build one per topology via :meth:`build`, which fills every table; the
    object is never changed afterwards.  :meth:`distance` and
    :meth:`reachable` are O(1) list lookups; :meth:`next_hops` filters the
    state's legal moves (at most its link count) against the distances.
    """

    topo: NetworkTopology
    tree: BfsTree
    _up_end: dict[int, int] = field(default_factory=dict, repr=False)
    _moves: list[tuple[tuple[Hop, int], ...]] = field(
        default_factory=list, repr=False
    )
    """Legal ``(hop, next state)`` moves per state, in link order."""
    _dist: list[list[int]] = field(default_factory=list, repr=False)
    """Per destination, hop count from each state; -1 when unreachable."""

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, topo: NetworkTopology, root: int = 0, orientation: str = "bfs"
    ) -> "UpDownRouting":
        """Compute the orientation and all-pairs minimal-route tables.

        ``orientation`` selects the spanning structure the up/down rule is
        anchored to: ``"bfs"`` is the paper's Autonet rule (closer to the
        BFS root = up; ties by id); ``"dfs"`` uses DFS preorder labels
        (see :mod:`repro.routing.dfs_tree`).
        """
        tree = build_bfs_tree(topo, root=root)
        rt = cls(topo=topo, tree=tree)
        if orientation == "bfs":
            for lk in topo.links:
                rt._up_end[lk.link_id] = rt._bfs_up_end(lk)
        elif orientation == "dfs":
            from repro.routing.dfs_tree import dfs_preorder_labels

            labels = dfs_preorder_labels(topo, root=root)
            for lk in topo.links:
                rt._up_end[lk.link_id] = (
                    lk.a.switch
                    if labels[lk.a.switch] < labels[lk.b.switch]
                    else lk.b.switch
                )
        else:
            raise ValueError(f"unknown orientation {orientation!r}")
        rt._compute_tables()
        return rt

    def _bfs_up_end(self, link: SwitchLink) -> int:
        la, lb = self.tree.level[link.a.switch], self.tree.level[link.b.switch]
        if la != lb:
            return link.a.switch if la < lb else link.b.switch
        return min(link.a.switch, link.b.switch)

    # ------------------------------------------------------------------
    # Orientation queries
    # ------------------------------------------------------------------
    def up_end_switch(self, link: SwitchLink) -> int:
        """The switch at the *up* end of ``link``."""
        return self._up_end[link.link_id]

    def is_up_traversal(self, link: SwitchLink, from_switch: int) -> bool:
        """True when crossing ``link`` out of ``from_switch`` goes *up*."""
        return self._up_end[link.link_id] != from_switch

    def traversal_phase(self, link: SwitchLink, from_switch: int) -> Phase:
        """Phase a packet is in *after* crossing ``link`` from ``from_switch``."""
        return Phase.UP if self.is_up_traversal(link, from_switch) else Phase.DOWN

    def down_links_of(self, switch: int) -> list[SwitchLink]:
        """Links whose traversal out of ``switch`` goes down (toward leaves)."""
        return [
            lk for lk in self.topo.links_of(switch) if not self.is_up_traversal(lk, switch)
        ]

    def up_links_of(self, switch: int) -> list[SwitchLink]:
        """Links whose traversal out of ``switch`` goes up (toward the root)."""
        return [
            lk for lk in self.topo.links_of(switch) if self.is_up_traversal(lk, switch)
        ]

    # ------------------------------------------------------------------
    # Minimal-route tables
    # ------------------------------------------------------------------
    def _compute_tables(self) -> None:
        """Backward BFS over the (switch, phase) state graph, per destination.

        State ``2*switch + phase`` (UP = 0, DOWN = 1).  The legal moves of
        each state, in link order, and the reverse adjacency the BFS walks
        are built once; each destination keeps one flat distance list.
        Queries read ``phase._value_``: the ``Enum.value`` property costs
        about 20 times as much, on every lookup.
        """
        n = 2 * self.topo.num_switches
        moves: list[list[tuple[Hop, int]]] = [[] for _ in range(n)]
        rev: list[list[int]] = [[] for _ in range(n)]
        for s in range(self.topo.num_switches):
            for lk in self.topo.links_of(s):
                t = lk.other_end(s).switch
                if self.is_up_traversal(lk, s):
                    # Up moves are legal only before the first down move.
                    moves[2 * s].append((Hop(lk, t, Phase.UP), 2 * t))
                    rev[2 * t].append(2 * s)
                else:
                    hop = Hop(lk, t, Phase.DOWN)
                    for i in (2 * s, 2 * s + 1):
                        moves[i].append((hop, 2 * t + 1))
                        rev[2 * t + 1].append(i)
        self._moves = [tuple(m) for m in moves]
        self._dist = []
        for dest in range(self.topo.num_switches):
            dist = [-1] * n
            dist[2 * dest] = dist[2 * dest + 1] = 0
            frontier = [2 * dest, 2 * dest + 1]
            d = 0
            while frontier:
                d += 1
                nxt: list[int] = []
                for i in frontier:
                    for p in rev[i]:
                        if dist[p] < 0:
                            dist[p] = d
                            nxt.append(p)
                frontier = nxt
            self._dist.append(dist)

    def distance(self, src: int, dest: int, phase: Phase = Phase.UP) -> int:
        """Minimal legal hop count between switches from a given phase.

        Raises:
            KeyError: if ``dest`` is unreachable from the state (cannot
                happen for ``Phase.UP`` starts in a connected network).
        """
        d = self._dist[dest][2 * src + phase._value_]
        if d < 0:
            raise KeyError((src, phase))
        return d

    def next_hops(self, switch: int, phase: Phase, dest: int) -> tuple[Hop, ...]:
        """Candidate next hops on minimal legal routes toward ``dest``.

        An empty tuple means ``switch == dest`` (already there); a missing
        state (packet in DOWN phase with no legal continuation) raises
        ``KeyError`` -- by up*/down* correctness this never occurs for routes
        produced by this table itself.  Hops come in link order.
        """
        dist = self._dist[dest]
        i = 2 * switch + phase._value_
        d = dist[i]
        if d <= 0:
            if d < 0:
                raise KeyError((switch, phase))
            return ()
        want = d - 1
        # A plain loop: a comprehension's own frame costs more than the
        # two to four moves a state usually has.
        out: list[Hop] = []
        for hop, j in self._moves[i]:
            if dist[j] == want:
                out.append(hop)
        return tuple(out)

    def reachable(self, switch: int, phase: Phase, dest: int) -> bool:
        """Whether ``dest`` has any legal route from the state at all."""
        return self._dist[dest][2 * switch + phase._value_] >= 0
