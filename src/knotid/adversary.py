"""Schedule generators and the schedule file format.

A schedule is a finite prefix of a computation: an ordered sequence of state
graphs. State indices (and hence edge stamps and output rounds) are 1-based,
so the first state of a schedule is round 1.

The stock generators cover the experimental setup (a backbone whose only
knot is a directed cycle, with a fixed number of backbone edges appearing
uniformly at random per round) and the deterministic worst case for the
protocol's causally-chained complexity bound.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

from .graph import (
    Knot,
    ObservationGraph,
    TemporalEdge,
    find_knots,
    parse_edge_lines,
)


@dataclass(frozen=True)
class Schedule:
    """A finite prefix of a computation plus its generation provenance.

    ``states[j]`` is the state graph of round j+1 and every edge in it is
    stamped j+1. Generated schedules are reproducible from (params, seed);
    hand-built or padded ones carry whatever provenance string they were
    given.
    """

    n: int
    states: tuple
    params: str = "manual"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("process count must be non-negative")
        states = tuple(frozenset(s) for s in self.states)
        object.__setattr__(self, "states", states)
        for j, state in enumerate(states):
            for e in state:
                if e.state != j + 1:
                    raise ValueError(
                        f"edge {e} stored in state {j + 1}: stamp mismatch")
                if e.src >= self.n or e.dst >= self.n:
                    raise ValueError(
                        f"edge {e} references a process outside 0..{self.n - 1}")
        if any(ch.isspace() for ch in self.params):
            raise ValueError("params string must not contain whitespace")

    @property
    def horizon(self) -> int:
        return len(self.states)


def schedule_from_pairs(n: int, rounds: Sequence, params: str = "manual",
                        seed: int = 0) -> Schedule:
    """Build a schedule from per-round lists of (src, dst) pairs, stamping
    each round with its 1-based index."""
    states = tuple(
        frozenset(TemporalEdge(src, dst, j + 1) for src, dst in pairs)
        for j, pairs in enumerate(rounds))
    return Schedule(n=n, states=states, params=params, seed=seed)


def save_schedule(s: Schedule, path: str) -> None:
    """Write a schedule as a header line plus ``src dst state`` edge lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"n={s.n} horizon={s.horizon} seed={s.seed} params={s.params}\n")
        for state in s.states:
            for e in sorted(state, key=lambda e: (e.src, e.dst)):
                fh.write(f"{e.src} {e.dst} {e.state}\n")


_HEADER = re.compile(
    r"n=([0-9]+) horizon=([0-9]+) seed=(-?[0-9]+) params=(\S*)")


def load_schedule(path: str) -> Schedule:
    """Read a file written by ``save_schedule``. Any defect raises ValueError
    naming ``path:line``: a header not in exactly that form (so also an
    unknown, repeated, missing or negative field), fewer than two processes,
    or an edge line that is malformed, names a process outside 0..n-1, is
    stamped outside the horizon or repeats an earlier line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        match = _HEADER.fullmatch(header)
        if match is None:
            raise ValueError(f"{path}:1: header {header!r} is not 'n=<int> "
                             "horizon=<int> seed=<int> params=<text>'")
        n, horizon, seed = (int(g) for g in match.groups()[:3])
        if n < 2:
            raise ValueError(f"{path}:1: need at least two processes, "
                             f"got n={n}")
        buckets: list = [set() for _ in range(horizon)]
        for lineno, e in parse_edge_lines(fh, path, first_line=2):
            if not 1 <= e.state <= horizon:
                problem = f"stamped outside 1..{horizon}"
            elif e.src >= n or e.dst >= n:
                problem = f"names a process outside 0..{n - 1}"
            elif e in buckets[e.state - 1]:
                problem = "repeats an earlier line"
            else:
                buckets[e.state - 1].add(e)
                continue
            raise ValueError(
                f"{path}:{lineno}: edge {e.src} {e.dst} {e.state} {problem}")
    return Schedule(n=n, states=tuple(frozenset(b) for b in buckets),
                    params=match.group(4), seed=seed)


@dataclass(frozen=True)
class Backbone:
    """Static experiment topology: a directed cycle with tree-attached nodes.

    The cycle is the unique knot. Tree edges point away from the cycle
    (component toward new node): pointing inward would give the cycle an
    incoming arc and destroy the knot, and outward edges are what lets knot
    information eventually reach every node.
    """

    n: int
    cycle: tuple
    tree_edges: tuple
    seed: int = 0

    @property
    def edges(self) -> tuple:
        k = len(self.cycle)
        cycle_arcs = tuple((self.cycle[i], self.cycle[(i + 1) % k])
                           for i in range(k))
        return cycle_arcs + self.tree_edges

    def static_graph(self) -> ObservationGraph:
        return ObservationGraph.from_edges(
            TemporalEdge(src, dst, 0) for src, dst in self.edges)


def gen_backbone(n: int, cycle_size: int, rng_seed: int) -> Backbone:
    """Cycle over processes 0..cycle_size-1, remaining nodes attached one by
    one with a single outward edge from a uniformly chosen connected node."""
    if n < 2:
        raise ValueError("a backbone needs at least two processes")
    if not 2 <= cycle_size <= n:
        raise ValueError(f"cycle_size must be in 2..{n}, got {cycle_size}")
    rng = random.Random(rng_seed)
    cycle = tuple(range(cycle_size))
    tree = []
    for new in range(cycle_size, n):
        parent = rng.randrange(new)  # every id below `new` is already connected
        tree.append((parent, new))
    backbone = Backbone(n=n, cycle=cycle, tree_edges=tuple(tree), seed=rng_seed)
    if find_knots(backbone.static_graph(), 2) != [Knot(cycle)]:
        raise RuntimeError("generated backbone lost its unique-knot invariant")
    return backbone


def gen_computation(backbone: Backbone, edges_per_state: int, horizon: int,
                    rng_seed: int) -> Schedule:
    """Sample ``edges_per_state`` distinct backbone edges per round,
    independently and uniformly, for ``horizon`` rounds."""
    pool = backbone.edges
    if not 1 <= edges_per_state <= len(pool):
        raise ValueError(
            f"edges_per_state must be in 1..{len(pool)}, got {edges_per_state}")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    rng = random.Random(rng_seed)
    states = []
    for index in range(1, horizon + 1):
        picks = rng.sample(pool, edges_per_state)
        states.append(frozenset(TemporalEdge(src, dst, index)
                                for src, dst in picks))
    params = (f"backbone:k={len(backbone.cycle)},m={edges_per_state},"
              f"bseed={backbone.seed}")
    return Schedule(n=backbone.n, states=tuple(states), params=params,
                    seed=rng_seed)


def worst_case_schedule(n: int) -> Schedule:
    """Slowest possible single-knot run: 2n-1 rounds, one link each, all
    causally chained.

    Rounds 1..n lay an n-cycle link by link; the receiver of round n's link
    is the first process to hold the whole cycle. Rounds n+1..2n-1 walk the
    same chain again so that each remaining process learns the knot one
    round later, the last one exactly at round 2n-1.
    """
    if n < 2:
        raise ValueError("need at least two processes")
    states = []
    for i in range(n):
        states.append(frozenset({TemporalEdge(i, (i + 1) % n, i + 1)}))
    for j in range(n - 1):
        states.append(frozenset({TemporalEdge(j, j + 1, n + 1 + j)}))
    return Schedule(n=n, states=tuple(states), params=f"worst_case:n={n}",
                    seed=0)


def insert_noncomm_states(s: Schedule, positions: Iterable[int]) -> Schedule:
    """Insert empty (non-communicating) states and re-stamp what shifts.

    Each position is a 1-based state index of the original schedule; an empty
    state is inserted immediately before it (``horizon + 1`` appends at the
    end, and repeats insert several empties at the same spot). All later
    edges are re-stamped by their shift, which preserves every causality
    relation of the original schedule.
    """
    counts: Dict[int, int] = {}
    for pos in positions:
        if not 1 <= pos <= s.horizon + 1:
            raise ValueError(
                f"insert position {pos} outside 1..{s.horizon + 1}")
        counts[pos] = counts.get(pos, 0) + 1
    states: list = []
    for original in range(1, s.horizon + 1):
        states.extend([frozenset()] * counts.get(original, 0))
        new_index = len(states) + 1
        states.append(frozenset(
            TemporalEdge(e.src, e.dst, new_index)
            for e in s.states[original - 1]))
    states.extend([frozenset()] * counts.get(s.horizon + 1, 0))
    return Schedule(n=s.n, states=tuple(states), params=s.params, seed=s.seed)
