"""Acceptance suite: one test per contract criterion, each printing a
pass/fail line (visible even under captured output) with its tolerance
checked exactly as stated."""

import random
import time
from contextlib import contextmanager
from random import Random

from knotid import (
    Knot,
    computation_graph,
    find_knots,
    gen_backbone,
    gen_computation,
    insert_noncomm_states,
    longest_output_time,
    reachability_knots,
    run,
    save_schedule,
    verify,
    worst_case_schedule,
)
from knotid.cli import ExperimentConfig, main, run_sweep
from util import (checked_run, disjoint_two_cycles_schedule,
                  knot_churn_schedule, random_digraph)


# The sweep grids of criteria 5 and 6, also checked cell by cell against a
# closed form in test_oracle.py.
CRITERION_5 = ExperimentConfig(n=50, cycle_sizes=(4, 12, 24, 48),
                               edges_per_round=(5,), horizon=6000,
                               num_seeds=10, base_seed=42)
CRITERION_6 = ExperimentConfig(n=50, cycle_sizes=(12,),
                               edges_per_round=(1, 5, 10), horizon=6000,
                               num_seeds=10, base_seed=42)


def _emit(capsys, number, status, description):
    with capsys.disabled():
        print(f"[criterion {number}] {status}: {description}")


@contextmanager
def criterion(capsys, number, description):
    try:
        yield
    except BaseException:
        _emit(capsys, number, "FAIL", description)
        raise
    else:
        _emit(capsys, number, "PASS", description)


def test_criterion_1_worst_case_bound(capsys):
    desc = "worst-case schedules finish in exactly 2n-1 rounds, under 1s"
    with criterion(capsys, 1, desc):
        started = time.perf_counter()
        for n in (2, 3, 4, 8, 16, 32, 64):
            trace = run(worst_case_schedule(n))
            assert longest_output_time(trace) == 2 * n - 1, f"n={n}"
        assert time.perf_counter() - started < 1.0


def test_criterion_2_oracle_equivalence(capsys):
    desc = "find_knots matches the reachability oracle on 1050 random digraphs"
    with criterion(capsys, 2, desc):
        started = time.perf_counter()
        rng = random.Random(20260810)
        checked = 0
        for probability in (0.1, 0.3, 0.5):
            for _ in range(350):
                g = random_digraph(rng, rng.randint(2, 8), probability)
                assert find_knots(g) == reachability_knots(g)
                checked += 1
        assert checked == 1050
        assert time.perf_counter() - started < 10.0


def test_criterion_3_knot_churn_scenario(capsys):
    desc = ("hand-built scenario: knot forms, is observed, is destroyed, "
            "grows back larger")
    with criterion(capsys, 3, desc):
        s = knot_churn_schedule()
        assert find_knots(computation_graph(s, 4)) == [Knot((1, 2, 3))]   # (a)
        assert find_knots(computation_graph(s, 6)) == []                  # (b)
        assert find_knots(computation_graph(s, 7)) == [Knot((0, 1, 2, 3))]  # (c)
        trace = checked_run(s)
        assert trace.outputs[4] == (Knot((1, 2, 3)), 5)                   # (d)
        big = Knot((0, 1, 2, 3))
        first_seen = {}
        for pid in range(s.n):
            for knot, round_index in trace.observation_logs[pid]:
                if knot == big:
                    first_seen[pid] = round_index
                    break
        assert 3 in first_seen                                            # (e)
        assert all(first_seen[3] < r
                   for pid, r in first_seen.items() if pid != 3)


def test_criterion_4_agreement_and_termination_at_scale(capsys):
    desc = ("n=100, cycle 10, 5 edges/round, 6000 rounds: all 10 seeds "
            "agree on the backbone cycle and terminate")
    with criterion(capsys, 4, desc):
        base_seed = 42
        for index in range(10):
            rng = Random(base_seed + index)
            backbone = gen_backbone(100, 10, rng.getrandbits(64))
            schedule = gen_computation(backbone, 5, 6000, rng.getrandbits(64))
            verdict = verify(run(schedule))
            assert verdict.agreement, f"seed index {index}"
            assert verdict.termination, f"seed index {index}"
            assert verdict.knot == Knot(backbone.cycle), f"seed index {index}"


def test_criterion_5_larger_knots_take_longer(capsys):
    desc = ("n=50, m=5: mean longest output time is non-decreasing over "
            "cycle sizes 4, 12, 24, 48")
    with criterion(capsys, 5, desc):
        _, means = run_sweep(CRITERION_5)
        assert all(row.excluded == 0 for row in means)
        values = [row.mean for row in means]
        assert values == sorted(values), values


def test_criterion_6_more_edges_speed_up_detection(capsys):
    desc = ("n=50, cycle 12: mean longest output time strictly decreases "
            "over 1, 5, 10 edges per round")
    with criterion(capsys, 6, desc):
        _, means = run_sweep(CRITERION_6)
        assert all(row.excluded == 0 for row in means)
        values = [row.mean for row in means]
        assert all(a > b for a, b in zip(values, values[1:])), values


def test_criterion_7_asynchrony_invariance(capsys):
    desc = ("20 padded schedules: output knots unchanged, rounds shift by "
            "the insertions before them, zero tolerance")
    with criterion(capsys, 7, desc):
        for seed in range(20):
            rng = random.Random(seed)
            backbone = gen_backbone(10, 4, seed)
            schedule = gen_computation(backbone, 2, 400, seed)
            base = run(schedule)
            count = rng.randint(1, 100)
            positions = [rng.randint(1, schedule.horizon + 1)
                         for _ in range(count)]
            padded = insert_noncomm_states(schedule, positions)
            shifted = run(padded)
            for pid in range(schedule.n):
                if base.outputs[pid] is None:
                    assert shifted.outputs[pid] is None, (seed, pid)
                    continue
                knot, round_index = base.outputs[pid]
                shift = sum(1 for p in positions if p <= round_index)
                assert shifted.outputs[pid] == (knot, round_index + shift), \
                    (seed, pid)


def test_criterion_8_negative_control(capsys):
    desc = "two disjoint 2-cycles: verifier reports agreement=false"
    with criterion(capsys, 8, desc):
        verdict = verify(run(disjoint_two_cycles_schedule()))
        assert verdict.agreement is False


def test_criterion_9_run_determinism(capsys, tmp_path):
    desc = "running the same schedule file twice gives byte-identical CSVs"
    with criterion(capsys, 9, desc):
        path = tmp_path / "schedule.txt"
        save_schedule(gen_computation(gen_backbone(20, 6, 13), 3, 500, 13),
                      str(path))
        assert main(["run", str(path), "--out", str(tmp_path / "one")]) == 0
        assert main(["run", str(path), "--out", str(tmp_path / "two")]) == 0
        for suffix in ("trace.csv", "rounds.csv"):
            first = (tmp_path / f"one_{suffix}").read_bytes()
            second = (tmp_path / f"two_{suffix}").read_bytes()
            assert first == second, suffix
