import inspect
import json
import random
import tracemalloc
from dataclasses import replace
from itertools import chain, islice, repeat
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotid import engine, graph
from knotid import (
    Knot,
    Schedule,
    computation_graph,
    computation_rounds,
    gen_backbone,
    gen_computation,
    insert_noncomm_states,
    longest_output_time,
    reference_run,
    run,
    verify,
    worst_case_schedule,
)
from knotid.adversary import MAX_PROCESSES
from knotid.engine import (
    round_metrics,
    write_diagnostics_jsonl,
    write_round_metrics_csv,
    write_trace_csv,
)
import util
from util import checked_run, disjoint_two_cycles_schedule, small_schedules


def with_metrics(t, metrics):
    t.round_metrics = metrics
    return t


class TestRun:
    def test_all_empty_schedule(self):
        s = Schedule(3, [[], [], []])
        t = run(s)
        assert all(entry is None for entry in t.outputs.values())
        assert all(m.messages == 0 and m.payload_edges == 0
                   for m in t.round_metrics)
        assert longest_output_time(t) is None

    @pytest.mark.parametrize("links", [((0, 1), (1, 0)), ((1, 0), (0, 1))],
                             ids=["0-to-1-first", "1-to-0-first"])
    def test_a_link_carries_its_senders_pre_round_graph(self, links):
        # in round 1 each process hears the other's empty graph and its own
        # in-link, so neither holds the cycle before round 2, whichever
        # link the round lists first
        s = SimpleNamespace(n=2, states=[links] * 2)
        t = run(s)
        knot = Knot((0, 1))
        assert t.outputs == {0: (knot, 2), 1: (knot, 2)}
        assert t == reference_run(s)

    def test_churn_scenario_observation_order(self, churn_schedule):
        t = checked_run(churn_schedule)
        small, big = Knot((1, 2, 3)), Knot((0, 1, 2, 3))
        assert t.outputs[4] == (small, 5)   # bystander sees the 3-knot
        assert t.outputs[3] == (small, 4)   # closing process saw it first
        first_big = {pid: next((r for k, r in t.observation_logs[pid] if k == big),
                               None)
                     for pid in range(5)}
        assert first_big[3] == 9
        assert all(first_big[pid] > 9 for pid in (0, 1, 2, 4))
        assert t.outputs[0] == (big, 13)

    def test_worst_case_eight(self):
        t = run(worst_case_schedule(8))
        assert longest_output_time(t) == 15

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    def test_worst_case_detects_each_arc_set_once(self, n, detections):
        # round 1's receiver and round n's, which closes the cycle, search;
        # rounds 2..n-1 each reach a sink whose core is its sender's arc set,
        # and every later receiver gets the whole cycle, checked at round n
        t = run(worst_case_schedule(n))
        assert detections == [(1,), (0,)]
        assert longest_output_time(t) == 2 * n - 1

    def test_worst_case_decides_one_process_a_round_at_size(self):
        n = 1024
        t = run(worst_case_schedule(n))
        knot = Knot(tuple(range(n)))
        # list the processes that differ: a diff of 1024-member knots is slow
        assert [p for p in range(n) if t.outputs[p] != (knot, n + p)
                or t.observation_logs[p] != ((knot, n + p),)] == []

    def test_worst_case_matches_the_reference_at_64(self):
        assert longest_output_time(checked_run(worst_case_schedule(64))) \
            == 127

    def test_min_knot_size_below_two_is_rejected_before_any_round(self):
        def unread():
            raise AssertionError("a round was read")
            yield

        for runner in (run, reference_run):
            for schedule in (Schedule(3, [[]]),
                             SimpleNamespace(n=3, states=unread())):
                with pytest.raises(ValueError,
                                   match="min_knot_size must be at least 2"):
                    runner(schedule, min_knot_size=1)

    def test_lockstep_shares_no_knot_code_with_the_engine(
            self, churn_schedule, monkeypatch):
        # a Tarjan pass that sees no arcs never merges nodes and hides
        # every knot from the engine; the reference finds them by
        # reachability and diverges
        detect = graph.knots_from_adjacency

        def blind(seeds, preds, min_size=2):
            return detect(seeds, lambda v: (), min_size)

        for module in (graph, engine):
            monkeypatch.setattr(module, "knots_from_adjacency", blind)
        with pytest.raises(AssertionError, match="logs diverged"):
            checked_run(churn_schedule)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda t: replace(t, observation_logs={
            **t.observation_logs, 0: t.observation_logs[0][:-1]}),
         "logs diverged"),
        (lambda t: replace(t, outputs={**t.outputs, 0: (Knot((0, 1)), 1)}),
         "outputs diverged"),
        (lambda t: with_metrics(t, [
            *t.round_metrics[:-1],
            t.round_metrics[-1]._replace(payload_edges=-1)]),
         "round metrics diverged"),
    ], ids=["log", "output", "metric"])
    def test_lockstep_names_what_diverged(self, churn_schedule, monkeypatch,
                                          corrupt, message):
        # corrupt one part of the engine's returned trace
        monkeypatch.setattr(util, "run",
                            lambda s, **kw: corrupt(run(s, **kw)))
        with pytest.raises(AssertionError, match=message):
            checked_run(churn_schedule)

    def test_a_wrong_packed_pass_fails_the_reference_check(self,
                                                           monkeypatch):
        # the reference counts its payloads itself, so a packed pass that
        # miscounts them makes the two traces differ
        right = engine.round_metrics
        monkeypatch.setattr(engine, "round_metrics", lambda n, rounds: [
            m._replace(payload_edges=m.payload_edges + 1)
            for m in right(n, rounds)])
        s = worst_case_schedule(5)
        assert run(s) != reference_run(s)
        with pytest.raises(AssertionError, match="round metrics diverged"):
            checked_run(s)

    def test_fast_and_reference_paths_agree_on_random_schedules(self):
        for seed in range(12):
            rng = random.Random(seed)
            n = rng.randint(3, 8)
            rounds = []
            for _ in range(rng.randint(5, 40)):
                pairs = set()
                for _ in range(rng.randint(0, 4)):
                    src = rng.randrange(n)
                    dst = rng.randrange(n)
                    if src != dst:
                        pairs.add((src, dst))
                rounds.append(sorted(pairs))
            s = Schedule(n, rounds)
            checked_run(s)  # raises on any divergence

    def test_reference_agrees_at_experiment_size(self):
        # the first check of payload_edges at n=100: the journey oracle
        # compares only outputs and logs
        s = gen_computation(gen_backbone(100, 10, 3), 5, 1000, 3)
        checked_run(s)

    def test_outputs_are_sound_against_lg_at_output_round(self, churn_schedule):
        # drive the pure state machine by hand and check every decision is a
        # knot of that process's own graph at the moment it was made
        from knotid import ProcessState, TemporalEdge, find_knots, on_state
        states = {pid: ProcessState(pid) for pid in range(churn_schedule.n)}
        for round_index, state in enumerate(churn_schedule.states, start=1):
            edges = [TemporalEdge(src, dst, round_index) for src, dst in state]
            payloads = {e.src: states[e.src].lg for e in edges}
            by_dst = {}
            for e in edges:
                by_dst.setdefault(e.dst, []).append(e)
            for dst, in_edges in by_dst.items():
                incoming = [(payloads[e.src], e)
                            for e in sorted(in_edges, key=lambda e: e.src)]
                before = states[dst].output
                states[dst] = on_state(states[dst], incoming, round_index)
                after = states[dst].output
                if before is None and after is not None:
                    knot, decided_round = after
                    assert decided_round == round_index
                    assert knot in find_knots(states[dst].lg, 2)
        assert run(churn_schedule).outputs \
            == {pid: s.output for pid, s in states.items()}

    def test_output_rounds_coincide_with_incoming_links(self, churn_schedule):
        t = run(churn_schedule)
        for pid, entry in t.outputs.items():
            if entry is None:
                continue
            _, round_index = entry
            state = churn_schedule.states[round_index - 1]
            assert any(dst == pid for _, dst in state)

    def test_replay_is_deterministic(self):
        b = gen_backbone(15, 4, 21)
        s = gen_computation(b, 3, 200, 21)
        assert run(s) == run(s)

    def test_metric_sanity_bound(self, churn_schedule):
        t = run(churn_schedule)
        for metric in t.round_metrics:
            bound = metric.messages * len(
                computation_graph(churn_schedule, metric.round - 1))
            assert metric.payload_edges <= bound

    def test_message_counts_match_links(self, churn_schedule):
        t = run(churn_schedule)
        assert [m.messages for m in t.round_metrics] \
            == [len(state) for state in churn_schedule.states]


@st.composite
def pooled_schedules(draw):
    """Rounds of links drawn from a small fixed pool of arcs, with a
    ``min_knot_size``: repeated links make receivers that keep an out-arc,
    and arc sets met again as a mask or as a core."""
    n = draw(st.integers(2, 12))
    arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) \
        .filter(lambda pair: pair[0] != pair[1])
    pool = draw(st.lists(arc, min_size=1, max_size=2 * n, unique=True))
    rounds = draw(st.lists(st.lists(st.sampled_from(pool), max_size=8),
                           min_size=1, max_size=40))
    return Schedule(n, rounds), draw(st.sampled_from([2, 3]))


class TestRegionSearch:
    """Each arc set is searched once, from its receiver, over its whole
    graph; a receiver with no out-arc reuses the knots of its core."""

    @settings(max_examples=300, deadline=None)
    @given(pooled_schedules())
    def test_repeated_links_agree_with_the_reference(self, case):
        schedule, min_knot_size = case
        checked_run(schedule, min_knot_size)

    def test_reference_agrees_in_the_detection_bound_regime(self):
        # one backbone arc a round: most receivers are sinks whose core an
        # earlier receipt already searched
        for seed in (1, 2):
            checked_run(gen_computation(gen_backbone(40, 20, seed), 1, 1500,
                                        seed))

    def test_a_sink_reuses_its_senders_entry(self, detections):
        # rounds 3 and 4 reach sinks: process 2's graph without 0->2 is
        # process 0's, and process 3's without 2->3 is process 2's
        t = checked_run(Schedule(4, [[(0, 1)], [(1, 0)], [(0, 2)], [(2, 3)]]))
        assert detections == [(1,), (0,)]
        assert t.outputs[3] == (Knot((0, 1)), 4)

    def test_a_receiver_with_an_out_arc_is_searched(self, detections):
        # process 0's graph {0->1, 1->0} without the arc into 0 is process
        # 1's {0->1}, which holds no knot; 0 is not a sink, so it searches
        t = checked_run(Schedule(2, [[(0, 1)], [(1, 0)]]))
        assert detections == [(1,), (0,)]
        assert t.outputs[0] == (Knot((0, 1)), 2)

    def test_every_new_arc_seeds_the_search(self):
        # round 8: process 0 re-hears 1->0 and learns 5->4 first, then
        # 4->1 and the knot {2, 3} with 3->1; the knot does not reach 4, and
        # 0, a sink, finds it under its core, process 1's round-7 mask
        t = checked_run(Schedule(6, [[(1, 0)], [(5, 4)], [(4, 1)], [(2, 3)],
                                     [(3, 2)], [(2, 3)], [(3, 1)], [(1, 0)]]))
        assert t.observation_logs[0] == ((Knot((2, 3)), 8),)

    def test_unmasked_search_fails_the_reference_check(self, monkeypatch):
        # a search that ignores the receiver's mask walks arcs only other
        # processes know: at round 1 process 1 knows 0->1 but not 1->0
        detect = engine.knots_from_adjacency

        def unmasked(seeds, preds, min_size):
            in_arcs = inspect.getclosurevars(preds).nonlocals["in_arcs"]
            return detect(seeds,
                          lambda v: [src for _, src in in_arcs.get(v, ())],
                          min_size)

        monkeypatch.setattr(engine, "knots_from_adjacency", unmasked)
        with pytest.raises(AssertionError, match="logs diverged"):
            checked_run(Schedule(2, [[(0, 1), (1, 0)]]))


@st.composite
def relabelled_schedules(draw):
    """A small schedule plus a permutation of its process ids."""
    n = draw(st.integers(2, 6))
    link = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) \
        .filter(lambda pair: pair[0] != pair[1])
    rounds = draw(st.lists(st.lists(link, min_size=1, max_size=n),
                           min_size=4, max_size=12))
    return n, rounds, draw(st.permutations(range(n)))


class TestRelabelling:
    @settings(max_examples=80, deadline=None)
    @given(relabelled_schedules())
    @example((5, [[(1, 2)], [(2, 1)], [(3, 4)], [(4, 3)], [(1, 0), (3, 0)]],
              [4, 3, 2, 1, 0]))  # a tie the relabelling breaks the other way
    def test_relabelling_permutes_the_run(self, case):
        n, rounds, perm = case
        base = checked_run(Schedule(n, rounds))
        moved = checked_run(Schedule(
            n, [[(perm[a], perm[b]) for a, b in pairs] for pairs in rounds]))

        def relabel(knot):
            return Knot(perm[m] for m in knot.members)

        for pid in range(n):
            assert {(relabel(k), r) for k, r in base.observation_logs[pid]} \
                == set(moved.observation_logs[perm[pid]])
        v_base, v_moved = verify(base), verify(moved)
        assert (v_base.agreement, v_base.termination) \
            == (v_moved.agreement, v_moved.termination)
        # the same-round tie-break compares member ids, so only tie-free
        # runs must decide the relabelled knot
        if all(d["kind"] != "primary_tie" for d in v_base.diagnostics):
            for pid, entry in base.outputs.items():
                assert moved.outputs[perm[pid]] == (
                    None if entry is None else (relabel(entry[0]), entry[1]))


class TestScheduleProperties:
    @settings(max_examples=100, deadline=None)
    @given(small_schedules(), st.data())
    def test_prefix_gives_the_runs_first_rounds(self, schedule, data):
        h = data.draw(st.integers(0, schedule.horizon))
        full = checked_run(schedule)
        prefix = checked_run(Schedule(schedule.n, schedule.states[:h]))
        for pid in range(schedule.n):
            entry = full.outputs[pid]
            assert prefix.outputs[pid] == (
                entry if entry is not None and entry[1] <= h else None)
            assert prefix.observation_logs[pid] == tuple(
                (k, r) for k, r in full.observation_logs[pid] if r <= h)

    @settings(max_examples=100, deadline=None)
    @given(small_schedules())
    def test_stopping_at_the_last_decision_keeps_the_outputs(self, schedule):
        full = checked_run(schedule)
        stopped = run(schedule, stop_when_decided=True)
        last = stopped.horizon
        assert stopped.outputs == full.outputs
        assert stopped.round_metrics == full.round_metrics[:last]
        for pid in range(schedule.n):
            assert stopped.observation_logs[pid] == tuple(
                (k, r) for k, r in full.observation_logs[pid] if r <= last)
        a, b = verify(stopped), verify(full)
        assert (a.agreement, a.termination, a.knot) \
            == (b.agreement, b.termination, b.knot)
        longest = longest_output_time(full)
        assert last == (schedule.horizon if longest is None else longest)

    def test_stop_reads_rounds_lazily(self):
        # worst_case_schedule(4) decides at round 7; its rounds followed by
        # endless empty ones make a computation with no horizon.
        rounds = chain(worst_case_schedule(4).states, repeat(frozenset()))
        trace = run(SimpleNamespace(n=4, states=rounds),
                    stop_when_decided=True)
        assert trace.horizon == 7 == longest_output_time(trace)

    def test_stopped_one_pass_run_keeps_the_metrics_of_its_rounds(self):
        # the rounds come from a generator that is gone once read, and the
        # metrics are computed after the run from the rounds it kept
        b = gen_backbone(100, 10, 5)
        stopped = run(SimpleNamespace(
            n=100, states=islice(computation_rounds(b, 5, 5), 6000)),
            stop_when_decided=True)
        assert 0 < stopped.horizon < 6000
        prefix = gen_computation(b, 5, stopped.horizon, 5)
        assert stopped.round_metrics == reference_run(prefix).round_metrics

    @settings(max_examples=100, deadline=None)
    @given(small_schedules(), st.data())
    def test_padding_shifts_decisions_only(self, schedule, data):
        positions = data.draw(st.lists(
            st.integers(1, schedule.horizon + 1), min_size=1, max_size=8))
        base = checked_run(schedule)
        padded = checked_run(insert_noncomm_states(schedule, positions))

        def shifted(r):
            return r + sum(1 for p in positions if p <= r)

        for pid in range(schedule.n):
            entry = base.outputs[pid]
            assert padded.outputs[pid] == (
                None if entry is None else (entry[0], shifted(entry[1])))
            assert padded.observation_logs[pid] == tuple(
                (k, shifted(r)) for k, r in base.observation_logs[pid])


def reference_metrics(n: int, rounds) -> list:
    return reference_run(Schedule(n, rounds)).round_metrics


class TestRoundMetrics:
    """``round_metrics``, one count per node packed into an int, against
    ``reference_run``'s sets of temporal edges."""

    @pytest.mark.parametrize("rounds", [
        [[(0, 3), (1, 3), (2, 3)], [(3, 0), (3, 1)], [(0, 2), (1, 2), (3, 2)],
         [(2, 0), (2, 1), (2, 3)], [(1, 0), (2, 0), (3, 0)]],
        [[], [(0, 1), (2, 1)], [], [], [(1, 2), (1, 0)], [], [(0, 1)]],
    ], ids=["fan-in", "empty-rounds"])
    def test_matches_the_reference(self, rounds):
        assert round_metrics(4, rounds) == reference_metrics(4, rounds)

    @pytest.mark.parametrize("links", [7, 8, 9, 1023, 1024, 1025])
    def test_counts_fill_their_fields(self, links):
        # node 0 hears of all but the last link, then tells node 1: with
        # 2**k - 1 links its count, 2**k - 2, needs every value bit of a field
        rounds = [[(1, 0)]] * (links - 1) + [[(0, 1)]]
        metrics = round_metrics(2, rounds)
        assert metrics == reference_metrics(2, rounds)
        assert metrics[-1].payload_edges == links - 1

    def test_at_the_process_cap_a_pass_stays_small(self):
        tracemalloc.start()
        try:
            metrics = round_metrics(MAX_PROCESSES, [[(MAX_PROCESSES - 1, 0)],
                                                    [(0, 1)]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [m.payload_edges for m in metrics] == [0, 1]
        assert peak < 2**20  # no per-node table of field units

    def test_a_runs_metrics_read_as_the_references_list(self, churn_schedule):
        # run's metrics are computed on first read and then kept
        t = run(churn_schedule)
        metrics = t.round_metrics
        assert t.round_metrics is metrics
        assert repr(metrics) \
            == repr(reference_run(churn_schedule).round_metrics)


class TestVerify:
    def test_uniform_run_passes(self):
        t = run(worst_case_schedule(5))
        v = verify(t)
        assert v.agreement and v.termination
        assert v.knot == Knot(range(5))
        assert v.diagnostics == []

    def test_disjoint_cycles_fail_agreement(self):
        v = verify(run(disjoint_two_cycles_schedule()))
        assert not v.agreement
        assert not v.termination
        assert v.knot is None
        unobserved = [(d["knot"], d["process"], d["round"])
                      for d in v.diagnostics if d["kind"] == "unobserved_knot"]
        assert unobserved == [([0, 1], 1, None), ([0, 1], 2, None),
                              ([0, 1], 3, None), ([2, 3], 0, None),
                              ([2, 3], 1, None), ([2, 3], 3, None)]

    def test_silent_process_fails_termination(self):
        # process 3 exists but never gets a link
        s = Schedule(4, [[(0, 1)], [(1, 2)], [(2, 0)], [(0, 1)]])
        v = verify(run(s))
        assert not v.termination
        assert {"kind": "undecided", "process": 3, "round": None,
                "knot": None} in v.diagnostics

    def test_same_round_tie_is_reported(self):
        # both completed 2-cycles reach process 0 in the same round, on
        # links leaving the cycles (a relay chain would wire one cycle into
        # the other and destroy it in the receiver's graph)
        s = Schedule(
            5,
            [[(1, 2)], [(2, 1)], [(3, 4)], [(4, 3)],
             [(1, 0), (3, 0)]])
        t = checked_run(s)
        assert t.outputs[0] == (Knot((1, 2)), 5)
        assert {k for k, _ in t.observation_logs[0]} \
            == {Knot((1, 2)), Knot((3, 4))}
        v = verify(t)
        assert {"kind": "primary_tie", "process": 0, "round": 5,
                "knot": [1, 2]} in v.diagnostics


class TestTraceFiles:
    def test_trace_csv_contents(self, tmp_path, churn_schedule):
        t = run(churn_schedule)
        path = tmp_path / "trace.csv"
        write_trace_csv(t, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "process,output_round,knot_members"
        assert lines[4] == "3,4,1|2|3"
        assert lines[5] == "4,5,1|2|3"

    def test_each_process_gets_its_own_knot(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(run(disjoint_two_cycles_schedule()), str(path))
        assert path.read_text().splitlines()[1:] \
            == ["0,2,0|1", "1,,", "2,4,2|3", "3,,"]

    def test_absent_output_leaves_fields_empty(self, tmp_path):
        s = Schedule(2, [[], []])
        path = tmp_path / "trace.csv"
        write_trace_csv(run(s), str(path))
        assert path.read_text().splitlines()[1] == "0,,"

    def test_metrics_csv_contents(self, tmp_path, churn_schedule):
        t = run(churn_schedule)
        path = tmp_path / "rounds.csv"
        write_round_metrics_csv(t, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "round,messages,payload_edges"
        assert lines[1] == "1,0,0"
        assert len(lines) == 1 + churn_schedule.horizon

    def test_diagnostics_jsonl(self, tmp_path):
        v = verify(run(disjoint_two_cycles_schedule()))
        path = tmp_path / "diag.jsonl"
        write_diagnostics_jsonl(v, str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records == v.diagnostics
        assert {r["kind"] for r in records} == {"unobserved_knot", "undecided"}

    def test_writers_are_byte_identical_across_runs(self, tmp_path, churn_schedule):
        paths = []
        for tag in ("a", "b"):
            t = run(churn_schedule)
            path = tmp_path / f"{tag}.csv"
            write_trace_csv(t, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
