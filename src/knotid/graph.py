"""Temporal directed graphs and knot analytics.

A temporal edge is a directed link stamped with the round in which it was
present; the same link reappearing in a later round is a distinct event.
Knot detection ignores the stamps: a knot is a strongly connected component
of the projected static digraph that has no incoming arcs and at least two
members. Out-arcs leaving a knot are harmless, a single arc entering it
destroys it. A graph, local or whole-computation, is a frozenset of
temporal edges whose nodes are their endpoints: knot members are strongly
connected, so a lone node is never a knot.

Two knot finders are provided on purpose. ``find_knots`` runs
``knots_from_adjacency``, one backward Tarjan pass that keeps the SCCs no
arc enters, from every node; ``reachability_knots`` is a deliberately naive
per-node reachability check, kept independent so the two can cross-validate
each other; it is also ``on_state``'s detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .adversary import bounded

ProcessId = int


@dataclass(frozen=True, slots=True)
class TemporalEdge:
    """A directed link present in one particular round (state)."""

    src: ProcessId
    dst: ProcessId
    state: int

    def __post_init__(self) -> None:
        bounded("src", self.src, 0)
        bounded("dst", self.dst, 0)
        bounded("state", self.state, 0)
        if self.src == self.dst:
            raise ValueError(f"self-loop {self.src}->{self.dst} is not a valid link")


@dataclass(frozen=True, order=True)
class Knot:
    """At least two processes forming a source SCC of some observation graph.

    Canonical form: members sorted ascending, so equality is set equality
    and knots sort by member list. The hash of the members is computed
    once, since logs look knots up often.
    """

    members: tuple

    def __post_init__(self) -> None:
        members = tuple(sorted(set(self.members)))
        if len(members) < 2:
            raise ValueError("a knot has at least two members")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_hash", hash(members))

    def __hash__(self) -> int:
        return self._hash

    def __contains__(self, pid: ProcessId) -> bool:
        return pid in self.members

    def __len__(self) -> int:
        return len(self.members)


def knots_from_adjacency(seeds: Iterable[ProcessId],
                         preds: Callable[[ProcessId], Iterable[ProcessId]],
                         min_size: int = 2) -> list:
    """Knots of size >= min_size among the ancestors of ``seeds``.

    ``preds(v)`` iterates the predecessors of ``v``. One iterative Tarjan
    pass walks arcs backwards from the seeds, so it visits exactly the nodes
    that reach a seed and every arc into them. An SCC is a knot when no arc
    from another SCC enters it; walking backwards, such an arc leads to an
    SCC that is already complete: a predecessor indexed but off the stack,
    or a DFS child whose SCC completed first. Every knot among the visited
    nodes is a knot of the whole graph, and the result is sorted by
    canonical member list. ``find_knots`` seeds it with every node; the
    engine seeds it with the receiver alone, which every node of its graph
    reaches.
    """
    bounded("min_knot_size", min_size, 2)
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    entered: set = set()  # nodes some arc from another SCC enters
    knots: list = []
    for root in seeds:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(preds(root)))]
        while work:
            v, sources = work[-1]
            for u in sources:
                if u not in index:
                    index[u] = low[u] = len(index)
                    stack.append(u)
                    on_stack.add(u)
                    work.append((u, iter(preds(u))))
                    break
                if u not in on_stack:  # u's SCC is complete
                    entered.add(v)
                elif index[u] < low[v]:
                    low[v] = index[u]
            else:
                work.pop()
                if low[v] < index[v]:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    continue
                if work:  # v's SCC is complete: the arc v -> parent enters
                    entered.add(work[-1][0])
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                if len(component) >= min_size and entered.isdisjoint(component):
                    knots.append(Knot(component))
    return sorted(knots)


def find_knots(edges: Iterable[TemporalEdge], min_size: int = 2) -> list:
    """Every knot: source SCCs of the projection with >= min_size members."""
    preds: dict = {}
    for e in edges:
        preds.setdefault(e.dst, set()).add(e.src)
        preds.setdefault(e.src, set())
    return knots_from_adjacency(preds.keys(), preds.__getitem__, min_size)


def reachability_knots(edges: Iterable[TemporalEdge], min_size: int = 2) -> list:
    """Brute-force knot finder used as an independent oracle.

    Computes a full reachability set per node. A node belongs to a knot
    exactly when every node that can reach it can also be reached back from
    it (any one-way arc into its neighbourhood disqualifies it, one-way arcs
    out of it do not). Mutually reachable knot nodes are grouped into one
    knot; groups below min_size are dropped. Same contract and ordering as
    ``find_knots``, but no SCC machinery is shared.
    """
    bounded("min_knot_size", min_size, 2)
    successors: dict = {}
    for e in edges:
        successors.setdefault(e.src, set()).add(e.dst)
        successors.setdefault(e.dst, set())
    nodes = sorted(successors)

    def reach_from(start: ProcessId) -> set:
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in successors[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return seen

    reach = {p: reach_from(p) for p in nodes}
    knot_nodes = [p for p in nodes
                  if all(q in reach[p] for q in nodes if p in reach[q])]
    grouped: list = []
    assigned: set = set()
    for p in knot_nodes:
        if p in assigned:
            continue
        group = [q for q in knot_nodes if q in reach[p] and p in reach[q]]
        assigned.update(group)
        if len(group) >= min_size:
            grouped.append(Knot(group))
    grouped.sort()
    return grouped


def computation_graph(schedule, i: int) -> frozenset:
    """Union of the first i states of a schedule, each link stamped with
    its round.

    ``i`` counts whole states: 0 yields the empty graph, ``schedule.horizon``
    the union of everything. With 1-based state indices this is "the graph
    through state i".
    """
    if not 0 <= i <= len(schedule.states):
        raise IndexError(f"state index {i} outside 0..{len(schedule.states)}")
    return frozenset(
        TemporalEdge(src, dst, j)
        for j, state in enumerate(schedule.states[:i], start=1)
        for src, dst in state)
