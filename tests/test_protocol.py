import pytest

from knotid import (
    Knot,
    ProcessState,
    TemporalEdge,
    decide_consensus,
    on_state,
)
from knotid.protocol import primary_tie_break


def graph_of(*triples):
    return frozenset(TemporalEdge(s, d, t) for s, d, t in triples)


def deliver(state, payload, src, round_index, min_knot_size=2):
    edge = TemporalEdge(src, state.self_id, round_index)
    return on_state(state, [(payload, edge)], round_index, min_knot_size)


class TestOnState:
    def test_no_incoming_is_a_no_op(self):
        p = ProcessState(2)
        assert on_state(p, [], 5) is p

    def test_in_edge_must_target_this_process(self):
        p = ProcessState(2)
        bad = TemporalEdge(0, 1, 5)
        with pytest.raises(ValueError):
            on_state(p, [(frozenset(), bad)], 5)

    def test_in_edge_must_carry_current_round(self):
        p = ProcessState(2)
        stale = TemporalEdge(0, 2, 4)
        with pytest.raises(ValueError):
            on_state(p, [(frozenset(), stale)], 5)

    def test_payload_must_be_a_pre_round_snapshot(self):
        p = ProcessState(2)
        payload = graph_of((0, 1, 5))  # stamped with the current round
        edge = TemporalEdge(0, 2, 5)
        with pytest.raises(ValueError):
            on_state(p, [(payload, edge)], 5)

    def test_cycle_payload_completes_a_knot(self):
        # the bystander receives the full 3-cycle and the link it came on
        cycle = graph_of((3, 2, 2), (2, 1, 3), (1, 3, 4))
        p = deliver(ProcessState(4), cycle, src=3, round_index=5)
        assert p.observation_log == ((Knot((1, 2, 3)), 5),)
        assert p.output == (Knot((1, 2, 3)), 5)
        assert TemporalEdge(3, 4, 5) in p.lg

    def test_output_is_write_once(self):
        cycle = graph_of((3, 2, 2), (2, 1, 3), (1, 3, 4))
        p = deliver(ProcessState(4), cycle, src=3, round_index=5)
        bigger = graph_of((3, 2, 2), (2, 1, 3), (1, 3, 4), (0, 1, 6), (2, 0, 7))
        p2 = deliver(p, bigger, src=3, round_index=9)
        assert p2.output == p.output
        assert (Knot((0, 1, 2, 3)), 9) in p2.observation_log

    def test_rediscovered_knot_is_not_logged_twice(self):
        cycle = graph_of((3, 2, 2), (2, 1, 3), (1, 3, 4))
        p = deliver(ProcessState(4), cycle, src=3, round_index=5)
        p2 = deliver(p, cycle, src=3, round_index=6)
        assert p2.observation_log == p.observation_log

    def test_two_knots_in_one_message_tie_break(self):
        payload = graph_of((1, 2, 1), (2, 1, 2), (3, 4, 1), (4, 3, 3))
        p = deliver(ProcessState(9), payload, src=1, round_index=4)
        assert {k for k, _ in p.observation_log} == {Knot((1, 2)), Knot((3, 4))}
        assert p.output == (Knot((1, 2)), 4)

    def test_graph_grows_monotonically(self):
        p = ProcessState(7)
        payloads = [graph_of((0, 1, 1)), graph_of((1, 2, 2)), graph_of((2, 0, 3))]
        round_index = 2
        for payload in payloads:
            nxt = deliver(p, payload, src=0, round_index=round_index)
            assert p.lg <= nxt.lg
            p, round_index = nxt, round_index + 2


class TestPrimaryKnot:
    """The primary knot is ``on_state``'s output: the knot of the earliest
    observation, same-round ties broken by ``primary_tie_break``."""

    def test_empty_log_has_no_primary(self):
        assert ProcessState(0).output is None
        p = deliver(ProcessState(0), graph_of((1, 2, 1)), src=1,
                    round_index=2)
        assert p.observation_log == () and p.output is None

    def test_earliest_round_wins(self):
        cycle = graph_of((1, 2, 1), (2, 3, 2), (3, 1, 3))
        p = deliver(ProcessState(0), cycle, src=3, round_index=5)
        bigger = graph_of((1, 2, 1), (2, 3, 2), (3, 1, 3), (0, 1, 6),
                          (3, 0, 7))
        p = deliver(p, bigger, src=3, round_index=9)
        assert p.observation_log == ((Knot((1, 2, 3)), 5),
                                     (Knot((0, 1, 2, 3)), 9))
        assert p.output == (Knot((1, 2, 3)), 5)

    def test_same_round_tie_break_prefers_smallest(self):
        for knots in ([Knot((1, 2)), Knot((2, 3))],
                      [Knot((2, 3)), Knot((1, 2))]):
            assert primary_tie_break(knots) == Knot((1, 2))

    def test_size_beats_lexicographic_order(self):
        payload = graph_of((0, 1, 1), (1, 2, 2), (2, 0, 3), (5, 6, 1),
                           (6, 5, 2))
        p = deliver(ProcessState(9), payload, src=0, round_index=4)
        assert {k for k, _ in p.observation_log} == {Knot((0, 1, 2)),
                                                     Knot((5, 6))}
        assert p.output == (Knot((5, 6)), 4)


class TestDecideConsensus:
    def test_unanimous_value_is_decided(self):
        assert decide_consensus(Knot((1, 2, 3)), {1: 1, 2: 1, 3: 1}) == 1

    def test_highest_member_rules(self):
        assert decide_consensus(Knot((1, 2, 3)), {1: 0, 2: 1, 3: 0}) == 0

    def test_equal_inputs_give_equal_decisions(self):
        inputs = {1: 0, 2: 1, 3: 0}
        k = Knot((1, 2, 3))
        assert decide_consensus(k, inputs) == decide_consensus(k, dict(inputs))

    def test_extra_inputs_are_ignored(self):
        assert decide_consensus(Knot((1, 2)), {1: 0, 2: 1, 9: 0}) == 1

    def test_missing_member_input_raises(self):
        with pytest.raises(ValueError):
            decide_consensus(Knot((1, 2, 3)), {1: 0, 3: 1})
