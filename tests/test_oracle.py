"""The engine against a journey oracle that shares none of its code.

Process p holds the temporal edge (u, v, t) at the end of round r exactly
when v's state at the end of round t reaches p by a strict journey (one hop
per round, on a link present in that round) by round r (Casteigts,
Flocchini, Quattrociocchi, Santoro, "Time-varying graphs and dynamic
networks", 2012). In vector-clock form, ``vc[p][v]`` is the last round of
v's state that p has causally seen, so p holds the projected arc (u, v)
exactly when its first stamp is at most ``vc[p][v]``. The oracle rebuilds
each receiver's arc set from that rule alone and redoes the decisions with
``reachability_knots``.
"""

import pytest
from hypothesis import example, given, settings

from knotid import (
    Knot,
    Schedule,
    TemporalEdge,
    gen_backbone,
    gen_computation,
    reachability_knots,
    run,
    worst_case_schedule,
)
from util import checked_run, knot_churn_schedule, small_schedules


def journey_run(schedule, min_knot_size: int = 2) -> tuple:
    """(outputs, observation logs) keyed by process, as in ``Trace``."""
    n = schedule.n
    first_stamp: dict = {}
    for r, state in enumerate(schedule.states, start=1):
        for link in state:
            first_stamp.setdefault(link, r)
    vc = [[0] * n for _ in range(n)]
    held = [0] * n
    outputs = {p: None for p in range(n)}
    logs: dict = {p: [] for p in range(n)}
    for r, state in enumerate(schedule.states, start=1):
        sent = {}
        for src, _ in state:
            if src not in sent:
                sent[src] = vc[src][:]
                sent[src][src] = r - 1  # a payload is the pre-round state
        for src, dst in state:
            vc[dst] = [max(a, b) for a, b in zip(vc[dst], sent[src])]
        for p in {dst for _, dst in state}:
            vc[p][p] = r
            arcs = [TemporalEdge(u, v, t) for (u, v), t in first_stamp.items()
                    if t <= vc[p][v]]
            if len(arcs) == held[p]:
                continue  # same arcs, same knots, all of them logged
            held[p] = len(arcs)
            logged = {k for k, _ in logs[p]}
            fresh = [k for k in reachability_knots(arcs, min_knot_size)
                     if k not in logged]
            logs[p].extend((k, r) for k in fresh)
            if fresh and outputs[p] is None:
                outputs[p] = (min(fresh, key=lambda k: (len(k), k.members)), r)
    return outputs, {p: tuple(log) for p, log in logs.items()}


def assert_matches_oracle(schedule):
    trace = run(schedule)
    outputs, logs = journey_run(schedule)
    assert trace.outputs == outputs
    assert trace.observation_logs == logs
    return trace


@pytest.mark.parametrize("n, cycle_size, seed", [(50, 48, 11), (100, 10, 12)])
def test_backbone_runs_match_oracle(n, cycle_size, seed):
    # every process decides long before round 1000 on these seeds; the
    # rounds after the last decision would only cost time
    schedule = gen_computation(gen_backbone(n, cycle_size, seed), 5, 1000,
                               seed)
    trace = assert_matches_oracle(schedule)
    assert all(entry is not None for entry in trace.outputs.values())


def test_hand_built_schedules_match_oracle():
    assert_matches_oracle(knot_churn_schedule())


@pytest.mark.parametrize("n", [2, 3, 32])
def test_worst_case_matches_oracle(n):
    assert_matches_oracle(worst_case_schedule(n))


def test_relay_of_a_destroyed_knot_matches_oracle(detections):
    # Process 0 logs the knot {0, 1} at round 2; the knot {2, 3} destroys it
    # at round 5 through the arc 2->0, and process 0 learns the arc 3->0 at
    # round 6 with nothing fresh to log. At round 7 process 1 gets process
    # 0's whole arc set, which already holds the arc 0->1, so its mask is
    # one detected before: a memo hit that must log the surviving knot only.
    # Round 3's receiver is a sink whose core, the empty set, round 1
    # stored, so rounds 1, 2, 4, 5 and 6 search.
    schedule = Schedule(4, [[(0, 1)], [(1, 0)], [(2, 3)], [(3, 2)], [(2, 0)],
                            [(3, 0)], [(0, 1)]])
    trace = assert_matches_oracle(schedule)
    assert detections == [(1,), (0,), (2,), (0,), (0,)]
    assert trace.observation_logs[0] == ((Knot((0, 1)), 2), (Knot((2, 3)), 5))
    assert trace.observation_logs[1] == ((Knot((2, 3)), 7),)
    assert trace.outputs[1] == (Knot((2, 3)), 7)
    checked_run(schedule)


@settings(max_examples=150, deadline=None)
@given(small_schedules())
@example(Schedule(  # two knots reach process 0 in one round
    5, [[(1, 2)], [(2, 1)], [(3, 4)], [(4, 3)], [(1, 0), (3, 0)]]))
def test_small_schedules_match_oracle(schedule):
    assert_matches_oracle(schedule)
