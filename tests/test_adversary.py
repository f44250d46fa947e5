import random
import re
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotid import (
    Backbone,
    Knot,
    Schedule,
    TemporalEdge,
    computation_graph,
    computation_rounds,
    gen_backbone,
    gen_computation,
    insert_noncomm_states,
    load_schedule,
    longest_output_time,
    reachability_knots,
    run,
    save_schedule,
    verify,
    worst_case_schedule,
)
from knotid.adversary import MAX_HORIZON, MAX_PROCESSES, integer
from util import disjoint_two_cycles_schedule


class TestIntegerGrammar:
    @pytest.mark.parametrize("text, value", [
        ("0", 0), ("12", 12), ("-7", -7), ("007", 7)])
    def test_ascii_digits_with_an_optional_minus(self, text, value):
        assert integer(text) == value

    @pytest.mark.parametrize("text", [
        "", "-", "+3", "1_2", " 12", "12 ", "12\n", "\u0661\u0662", "--1",
        "0x10", "1e3"])
    def test_every_other_form_is_refused(self, text):
        with pytest.raises(ValueError, match="bad integer for n: "):
            integer(text, "n")


class TestSchedule:
    def test_stamp_is_the_round_index(self, tmp_path):
        s = Schedule(3, [[(0, 1)], [], [(1, 2), (2, 0)]])
        assert computation_graph(s, s.horizon) == {
            TemporalEdge(0, 1, 1), TemporalEdge(1, 2, 3),
            TemporalEdge(2, 0, 3)}
        path = tmp_path / "schedule.txt"
        save_schedule(s, str(path))
        assert path.read_text().splitlines()[1:] \
            == ["0 1 1", "1 2 3", "2 0 3"]

    @pytest.mark.parametrize("link, problem", [
        ((1, 1), "self-loop 1->1 is not a valid link"),
        ((-1, 0), "link -1->0 names a process"),
        ((0, 5), "link 0->5 names a process"),
        ((True, 2), "link True->2 names a process"),
        ((0.5, 1), "link 0.5->1 names a process"),
        # ids equal to their partner but not ints are no self-loop
        ((True, 1), "link True->1 names a process"),
        ((1.0, 1), "link 1.0->1 names a process"),
        ((0, 1, 2), "link (0, 1, 2) is not a (src, dst) pair"),
        (0, "link 0 is not a (src, dst) pair"),
        ("01", "link '01' is not a (src, dst) pair"),
    ], ids=["self-loop", "negative-id", "foreign-id", "bool-id", "float-id",
            "bool-equal-id", "float-equal-id", "triple", "int", "str"])
    def test_foreign_process_rejected(self, link, problem):
        # links are checked once across rounds, and a bad one is then found
        # round by round: the first bad round is named, not round 4
        with pytest.raises(ValueError,
                           match=f"^round 2: {re.escape(problem)}"):
            Schedule(3, [[(0, 1)], [link], [(1, 2)], [(2, 2), (0, 7)]])

    @pytest.mark.parametrize("item", [5, (0, 1, 2)], ids=["int", "triple"])
    def test_first_bad_round_wins_over_a_later_non_pair(self, item):
        with pytest.raises(ValueError, match="^round 1: self-loop 2->2 "):
            Schedule(3, [[(2, 2)], [item]])

    @pytest.mark.parametrize(
        "n", [2.5, True, MAX_PROCESSES + 1],
        ids=["float-n", "bool-n", "n-above-cap"])
    def test_bad_process_count_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be an int, got "
                                             "|^n must be in 0..10000, got"):
            Schedule(n, [])

    def test_params_must_not_contain_whitespace(self):
        with pytest.raises(ValueError):
            Schedule(2, [[(0, 1)]], params="two words")

    @pytest.mark.parametrize("provenance, message", [
        ({"seed": True}, "seed must be an int, got True"),
        ({"seed": 1.5}, "seed must be an int, got 1.5"),
        ({"params": None}, "params must be a str, got None")],
        ids=["bool-seed", "float-seed", "none-params"])
    def test_provenance_a_header_cannot_hold_is_rejected(self, provenance,
                                                          message):
        # save_schedule would write a header that load_schedule rejects
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Schedule(3, [[(0, 1)]], **provenance)

    def test_save_load_round_trip(self, tmp_path):
        generated = gen_computation(gen_backbone(12, 4, 11), 3, 40, 11)
        # params is the one text of a schedule file that may be non-ASCII
        non_ascii = Schedule(3, [[(0, 1)], [], [(1, 2), (2, 0)]],
                             params="café→k=3", seed=5)
        negative_seed = Schedule(3, [[(0, 1)]], seed=-5)
        path = tmp_path / "schedule.txt"
        for schedule in (generated, negative_seed, non_ascii):
            save_schedule(schedule, str(path))
            assert load_schedule(str(path)) == schedule
        assert path.read_bytes().splitlines(keepends=True)[0] == (
            b"n=3 horizon=3 seed=5 params=caf\xc3\xa9\xe2\x86\x92k=3\n")

    def test_loaded_schedule_replays_identically(self, tmp_path):
        schedule = gen_computation(gen_backbone(10, 3, 5), 2, 60, 5)
        path = tmp_path / "schedule.txt"
        save_schedule(schedule, str(path))
        assert run(load_schedule(str(path))) == run(schedule)

    def test_empty_states_survive_round_trip(self, tmp_path):
        schedule = Schedule(3, [[], [(0, 1)], []])
        path = tmp_path / "schedule.txt"
        save_schedule(schedule, str(path))
        loaded = load_schedule(str(path))
        assert loaded.horizon == 3
        assert loaded.states[0] == frozenset() and loaded.states[2] == frozenset()


class TestGenBackbone:
    def test_two_node_backbone_is_a_bare_cycle(self):
        b = gen_backbone(2, 2, 0)
        assert b.cycle == (0, 1) and b.tree_edges == ()
        assert set(b.edges) == {(0, 1), (1, 0)}

    def test_full_cycle_spans_the_network(self):
        b = gen_backbone(100, 100, 1)
        assert len(b.cycle) == 100 and b.tree_edges == ()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_backbone(5, 1, 0)
        with pytest.raises(ValueError):
            gen_backbone(5, 6, 0)

    def test_deterministic_per_seed(self):
        assert gen_backbone(30, 7, 42) == gen_backbone(30, 7, 42)
        assert gen_backbone(30, 7, 42) != gen_backbone(30, 7, 43)

    def test_cycle_is_the_unique_knot(self):
        for seed in range(20):
            b = gen_backbone(25, 6, seed)
            g = frozenset(TemporalEdge(src, dst, 0) for src, dst in b.edges)
            assert reachability_knots(g) == [Knot(b.cycle)]

    def test_every_node_appears(self):
        b = gen_backbone(40, 5, 3)
        touched = {v for e in b.edges for v in e}
        assert touched == set(range(40))


class TestGenComputation:
    def test_state_sizes_and_membership(self):
        b = gen_backbone(20, 5, 2)
        s = gen_computation(b, 4, 50, 2)
        pool = set(b.edges)
        assert s.horizon == 50
        for state in s.states:
            assert len(state) == 4
            assert state <= pool

    def test_deterministic_per_seed(self):
        b = gen_backbone(20, 5, 2)
        assert gen_computation(b, 4, 50, 9) == gen_computation(b, 4, 50, 9)
        assert gen_computation(b, 4, 50, 9) != gen_computation(b, 4, 50, 10)

    def test_saturated_rate_repeats_the_whole_backbone(self):
        b = gen_backbone(6, 3, 1)
        s = gen_computation(b, len(b.edges), 5, 1)
        for state in s.states:
            assert state == set(b.edges)

    def test_rate_out_of_range(self):
        b = gen_backbone(6, 3, 1)
        with pytest.raises(ValueError):
            gen_computation(b, 0, 5, 1)
        with pytest.raises(ValueError):
            gen_computation(b, len(b.edges) + 1, 5, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.data(), st.integers(0, 60),
           st.integers(0, 2**64))
    def test_rounds_stream_is_the_schedule(self, n, data, horizon, seed):
        b = gen_backbone(n, data.draw(st.integers(2, n)), seed)
        m = data.draw(st.integers(1, len(b.edges)))
        assert tuple(islice(computation_rounds(b, m, seed), horizon)) \
            == gen_computation(b, m, horizon, seed).states

    @pytest.mark.parametrize("size", [20, 21, 22, 23, 84, 85, 86, 87])
    def test_rounds_are_the_sets_sample_draws(self, size):
        # sample's set size is 21 for m <= 5 and 85 for m = 6: it shuffles
        # at or below it and redraws taken indices above it
        b = Backbone(n=size, cycle=tuple(range(size)), tree_edges=())
        for m in (1, 2, 5, 6, size):
            for seed in (0, 7, 2**63 + 11):
                sample = random.Random(seed).sample
                want = [frozenset(sample(b.edges, m)) for _ in range(200)]
                assert list(islice(computation_rounds(b, m, seed), 200)) \
                    == want, (m, seed)

    @pytest.mark.parametrize(
        "n, links, problem",
        [(6, ((2, 2),), "self-loop"), (6, ((0, 6),), "names a process"),
         (6, ((0.5, 1),), "names a process"),
         (6.5, (), "n must be an int, got 6.5"),
         (True, (), "n must be an int, got True"),
         (MAX_PROCESSES + 1, (), "n must be in 0..10000, got 10001")],
        ids=["self-loop", "foreign-id", "float-id", "float-n", "bool-n",
             "n-above-cap"])
    def test_rounds_stream_checks_the_backbone(self, n, links, problem):
        b = gen_backbone(6, 3, 1)
        bad = Backbone(n=n, cycle=b.cycle, tree_edges=b.tree_edges + links)
        with pytest.raises(ValueError, match=f"backbone: .*{problem}"):
            computation_rounds(bad, 2, 1)

    def test_long_run_covers_the_backbone(self):
        # every backbone edge shows up over 6000 rounds at rate 5 of 100
        b = gen_backbone(100, 10, 4)
        s = gen_computation(b, 5, 6000, 4)
        seen = set().union(*s.states)
        assert seen == set(b.edges)


class TestCaps:
    """Sizes above the caps are refused before anything is allocated."""

    def test_caps_admit_the_experiment_grids(self):
        assert MAX_PROCESSES >= 256 and MAX_HORIZON >= 6000

    @pytest.mark.parametrize("n", [MAX_PROCESSES + 1, 10**12])
    def test_process_cap(self, n):
        message = f"^n must be in 2..{MAX_PROCESSES}, got {n}$"
        with pytest.raises(ValueError, match=message):
            gen_backbone(n, 4, 0)
        with pytest.raises(ValueError, match=message):
            worst_case_schedule(n)

    @pytest.mark.parametrize("make", [lambda n: gen_backbone(n, 2, 0),
                                      worst_case_schedule],
                             ids=["gen_backbone", "worst_case_schedule"])
    def test_process_count_must_be_an_int(self, make):
        with pytest.raises(ValueError,
                           match="^n must be an int, got 2.5$"):
            make(2.5)

    @pytest.mark.parametrize("horizon", [MAX_HORIZON + 1, 10**12])
    def test_horizon_cap(self, horizon):
        message = f"^horizon must be in 0..{MAX_HORIZON}, got {horizon}$"
        with pytest.raises(ValueError, match=message):
            gen_computation(gen_backbone(6, 3, 1), 2, horizon, 1)


class TestWorstCase:
    def test_two_processes(self):
        s = worst_case_schedule(2)
        assert s.horizon == 3
        assert [sorted(state) for state in s.states] \
            == [[(0, 1)], [(1, 0)], [(0, 1)]]

    def test_structure_is_one_causal_chain(self):
        for n in (2, 3, 5, 9):
            s = worst_case_schedule(n)
            assert s.horizon == 2 * n - 1
            links = [next(iter(state)) for state in s.states]
            assert all(len(state) == 1 for state in s.states)
            for (_, prev_dst), (cur_src, _) in zip(links, links[1:]):
                assert cur_src == prev_dst

    def test_bound_is_met_exactly(self):
        for n in (2, 3, 4, 8, 16, 32, 64):
            trace = run(worst_case_schedule(n))
            assert longest_output_time(trace) == 2 * n - 1

    def test_closing_process_decides_first(self):
        trace = run(worst_case_schedule(6))
        assert trace.outputs[0][1] == 6
        assert all(trace.outputs[pid][1] == 6 + pid for pid in range(1, 6))

    def test_rejects_tiny_networks(self):
        with pytest.raises(ValueError):
            worst_case_schedule(1)


class TestInsertNoncommStates:
    def test_append_at_end_changes_nothing(self):
        s = worst_case_schedule(4)
        padded = insert_noncomm_states(s, [s.horizon + 1, s.horizon + 1])
        assert run(padded).outputs == run(s).outputs

    def test_single_insert_shifts_later_outputs(self):
        s = worst_case_schedule(4)
        base = run(s)
        pos = 5
        padded = insert_noncomm_states(s, [pos])
        shifted = run(padded)
        for pid in range(s.n):
            knot, round_index = base.outputs[pid]
            expect = round_index + (1 if pos <= round_index else 0)
            assert shifted.outputs[pid] == (knot, expect)

    def test_padding_preserves_prefix_unions(self):
        s = worst_case_schedule(3)
        padded = insert_noncomm_states(s, [1])
        assert computation_graph(padded, 1) == frozenset()
        # stamps moved by one, connectivity untouched
        g = computation_graph(padded, padded.horizon)
        assert {(e.src, e.dst) for e in g} \
            == {(e.src, e.dst) for e in computation_graph(s, s.horizon)}

    def test_invalid_positions_rejected(self):
        s = worst_case_schedule(3)
        with pytest.raises(ValueError):
            insert_noncomm_states(s, [0])
        with pytest.raises(ValueError):
            insert_noncomm_states(s, [s.horizon + 2])

    def test_many_random_insertions_keep_knots(self):
        rng = random.Random(77)
        b = gen_backbone(8, 3, 6)
        s = gen_computation(b, 2, 120, 6)
        base = run(s)
        positions = [rng.randint(1, s.horizon + 1) for _ in range(25)]
        shifted = run(insert_noncomm_states(s, positions))
        for pid in range(s.n):
            assert (base.outputs[pid] is None) == (shifted.outputs[pid] is None)
            if base.outputs[pid] is None:
                continue
            knot, round_index = base.outputs[pid]
            shift = sum(1 for p in positions if p <= round_index)
            assert shifted.outputs[pid] == (knot, round_index + shift)


class TestCheckPrimaryUniform:
    """Primary uniformity as ``verify`` reports it over a whole run."""

    def test_worst_case_is_uniform(self):
        for n in (2, 5, 9):
            verdict = verify(run(worst_case_schedule(n)))
            assert verdict.uniform
            full = Knot(range(n))
            assert all(entry[0] == full
                       for entry in verdict.per_process.values())
            assert verdict.globally_observable == {full: True}

    def test_disjoint_cycles_are_not_uniform(self):
        verdict = verify(run(disjoint_two_cycles_schedule()))
        assert not verdict.uniform
        assert verdict.per_process[0] == (Knot((0, 1)), 2)
        assert verdict.per_process[2] == (Knot((2, 3)), 4)
        assert verdict.per_process[1] is None
        assert verdict.globally_observable[Knot((0, 1))] is False

    def test_generated_computation_is_uniform(self):
        b = gen_backbone(30, 6, 8)
        s = gen_computation(b, 3, 1500, 8)
        verdict = verify(run(s))
        assert verdict.uniform
        assert {entry[0] for entry in verdict.per_process.values()} \
            == {Knot(b.cycle)}

    def test_report_serializes(self):
        blob = verify(run(worst_case_schedule(3))).to_jsonable()
        assert blob["uniform"] is True
        assert blob["per_process"]["0"]["knot"] == [0, 1, 2]
