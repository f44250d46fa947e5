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

A backbone sweep cell has a closed form besides. The backbone's only cycle
is its k-cycle and no arc enters it, so the cycle is the one knot any
process's graph can hold, and it holds it once it holds the k cycle arcs
``(i, i+1 mod k)``. ``backbone_cell`` therefore tracks only those arcs, one
k-bit mask per process, and needs no knot search at all.
"""

from itertools import islice
from random import Random

import pytest
from hypothesis import example, given, settings

from knotid import (
    Knot,
    Schedule,
    TemporalEdge,
    computation_rounds,
    gen_backbone,
    gen_computation,
    reachability_knots,
    run,
    worst_case_schedule,
)
from knotid.cli import config_from_sources, run_sweep, write_sweep_csv
from test_acceptance import CRITERION_5, CRITERION_6
from test_golden import GOLDEN, SWEEP, SWEEP_H40, SWEEP_M1, SWEEP_MK3
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


def backbone_cell(n, cycle_size, edges_per_round, horizon, min_knot_size,
                  seed) -> tuple:
    """A sweep cell's (longest output round, agreement, termination, knot
    size) by the closed form: p decides at the first round by which it has
    heard every cycle arc, and a cycle below ``min_knot_size`` is no knot,
    so then nobody decides. Every decision is on the cycle, so agreement
    always holds."""
    rng = Random(seed)  # the sweep's seed split: backbone, then rounds
    backbone = gen_backbone(n, cycle_size, rng.getrandbits(64))
    k, arcs = cycle_size, backbone.edges
    assert arcs[:k] == tuple((i, (i + 1) % k) for i in range(k))
    # tree arcs leave the cycle and point to a newer node: none enters the
    # cycle, and none closes another cycle
    assert all(k <= v and u < v for u, v in arcs[k:])
    if k < min_knot_size:
        return None, True, False, None
    bit = {arc: 1 << i for i, arc in enumerate(arcs[:k])}
    every_arc = (1 << k) - 1
    heard = [0] * n  # process -> mask of the cycle arcs it has heard
    decided = set()
    rounds = computation_rounds(backbone, edges_per_round, rng.getrandbits(64))
    for r, state in enumerate(islice(rounds, horizon), start=1):
        pre = {}  # receiver -> its mask before the round
        for src, dst in state:
            pre.setdefault(dst, heard[dst])
            heard[dst] |= pre.get(src, heard[src]) | bit.get((src, dst), 0)
        decided.update(p for p in pre if heard[p] == every_arc)
        if len(decided) == n:
            return r, True, True, k
    return None, True, False, k if decided else None


def check_sweep_csv(path) -> tuple:
    """(cell rows read, a message per cell row unlike ``backbone_cell``) for
    a sweep CSV, whose config line gives n, horizon and min_knot_size."""
    with open(path, encoding="utf-8") as fh:
        config = dict(item.split("=", 1)
                      for item in fh.readline().split()[2:])
        header = fh.readline().rstrip("\n").split(",")
        rows = [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]
    n, horizon, min_knot_size = (int(config[key]) for key in
                                 ("n", "horizon", "min_knot_size"))
    cells = [row for row in rows if row["seed"]]  # a mean row has no seed
    wrong = []
    for row in cells:
        want = backbone_cell(n, int(row["cycle_size"]),
                             int(row["edges_per_round"]), horizon,
                             min_knot_size, int(row["seed"]))
        want = ["" if v is None else str(v).lower() for v in want]
        got = [row[key] for key in ("longest_output_round", "agreement",
                                    "termination", "knot_size")]
        if got != want:
            wrong.append(f"{path}: cell {row}: want {want}")
    return len(cells), wrong


def sweep_config(argv):
    """The config of a ``knotid sweep`` argv of ``--flag value`` pairs."""
    return config_from_sources({}, {flag[2:].replace("-", "_"): value
                                    for flag, value
                                    in zip(argv[1::2], argv[2::2])})


# Every golden sweep grid, and the grids of criteria 5 and 6.
SWEEP_GRIDS = {
    "golden-sweep": sweep_config(SWEEP),
    "golden-h40": sweep_config(SWEEP_H40),
    "golden-m1": sweep_config(SWEEP_M1),
    "golden-mk3": sweep_config(SWEEP_MK3),
    "criterion-5": CRITERION_5,
    "criterion-6": CRITERION_6,
}


@pytest.mark.parametrize("grid", SWEEP_GRIDS.values(), ids=SWEEP_GRIDS)
def test_every_sweep_cell_matches_the_closed_form(tmp_path, grid):
    cells, means = run_sweep(grid)
    write_sweep_csv(grid, cells, means, str(tmp_path / "sweep.csv"))
    assert check_sweep_csv(tmp_path / "sweep.csv") == (len(cells), [])


def test_closed_form_check_names_a_wrong_row(tmp_path):
    rows = (GOLDEN / "sweep_h40.csv").read_text(encoding="utf-8")
    assert check_sweep_csv(GOLDEN / "sweep_h40.csv") == (12, [])
    # cell k=6, m=3, seed 9 decides at round 40; say it never did
    wrong = tmp_path / "sweep.csv"
    wrong.write_text(rows.replace("6,3,9,40,,true,true,6,0",
                                  "6,3,9,,,true,false,6,1"), encoding="utf-8")
    count, messages = check_sweep_csv(wrong)
    assert count == 12 and len(messages) == 1 and "'seed': '9'" in messages[0]
