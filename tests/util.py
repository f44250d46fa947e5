"""Shared builders for the test suite."""

import random

from hypothesis import strategies as st

from knotid import Schedule, TemporalEdge, Trace, reference_run, run

# Five processes used by the hand-built scenario below.
A, B, C, D, E = 0, 1, 2, 3, 4


def knot_churn_schedule() -> Schedule:
    """Hand-built 13-round scenario exercising the full knot life cycle.

    A three-process cycle closes at round 4 (its closing receiver sees it
    immediately), a bystander observes it at round 5, an incoming link
    destroys it at round 6, a four-process cycle closes at round 7, and the
    remaining rounds relay until everyone has seen the larger knot. Process D
    is the first to assemble the four-process knot (round 9: knowledge of the
    round-7 link needs two hops because senders never learn their own
    outgoing links).
    """
    rounds = [
        [],            # 1
        [(D, C)],      # 2
        [(C, B)],      # 3
        [(B, D)],      # 4
        [(D, E)],      # 5
        [(A, B)],      # 6
        [(C, A)],      # 7
        [(A, B)],      # 8
        [(B, D)],      # 9
        [(D, E)],      # 10
        [(D, C)],      # 11
        [(C, B)],      # 12
        [(C, A)],      # 13
    ]
    return Schedule(5, rounds, params="churn_demo")


def checked_run(schedule: Schedule, min_knot_size: int = 2) -> Trace:
    """``run``, asserted equal to ``reference_run`` part by part. Logs come
    first: an output is read off its process's log."""
    trace = run(schedule, min_knot_size=min_knot_size)
    reference = reference_run(schedule, min_knot_size=min_knot_size)
    assert trace.observation_logs == reference.observation_logs, \
        "logs diverged"
    assert trace.outputs == reference.outputs, "outputs diverged"
    assert trace.round_metrics == reference.round_metrics, \
        "round metrics diverged"
    return trace


def disjoint_two_cycles_schedule() -> Schedule:
    """Two 2-cycles with no cross links: primaries can never agree."""
    return Schedule(
        4, [[(0, 1)], [(1, 0)], [(2, 3)], [(3, 2)]], params="disjoint_pair")


def random_digraph(rng: random.Random, n: int, p: float) -> frozenset:
    """Erdos-Renyi style digraph with arbitrary stamps on the edges."""
    edges = []
    for src in range(n):
        for dst in range(n):
            if src != dst and rng.random() < p:
                edges.append(TemporalEdge(src, dst, rng.randrange(10)))
    return frozenset(edges)


@st.composite
def small_schedules(draw) -> Schedule:
    """Up to 8 processes and 16 rounds of arbitrary links, empty rounds
    included."""
    n = draw(st.integers(2, 8))
    link = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) \
        .filter(lambda pair: pair[0] != pair[1])
    rounds = draw(st.lists(st.lists(link, max_size=n),
                           min_size=1, max_size=16))
    return Schedule(n, rounds)
