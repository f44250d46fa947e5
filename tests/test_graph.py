import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotid import (
    Knot,
    TemporalEdge,
    computation_graph,
    find_knots,
    reachability_knots,
)
from knotid.graph import knots_from_adjacency
from util import knot_churn_schedule, random_digraph


def graph_of(*triples):
    return frozenset(TemporalEdge(s, d, t) for s, d, t in triples)


@st.composite
def observation_graphs(draw, max_nodes=7):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    stamps = draw(st.lists(st.integers(min_value=0, max_value=9),
                           min_size=len(chosen), max_size=len(chosen)))
    edges = [TemporalEdge(s, d, t) for (s, d), t in zip(chosen, stamps)]
    return frozenset(edges)


class TestTypes:
    def test_temporal_edge_rejects_self_loop(self):
        with pytest.raises(ValueError):
            TemporalEdge(3, 3, 1)

    def test_temporal_edge_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            TemporalEdge(-1, 2, 0)
        with pytest.raises(ValueError):
            TemporalEdge(1, 2, -1)

    def test_edge_identity_includes_state(self):
        assert TemporalEdge(1, 2, 3) == TemporalEdge(1, 2, 3)
        assert TemporalEdge(1, 2, 3) != TemporalEdge(1, 2, 4)

    def test_knot_canonical_and_set_equality(self):
        assert Knot((3, 1, 2)).members == (1, 2, 3)
        assert Knot((3, 1, 2)) == Knot((1, 2, 3))
        assert 2 in Knot((1, 2)) and len(Knot((1, 2))) == 2

    def test_knot_hash_follows_its_members(self):
        k = Knot((3, 1, 2))
        assert hash(k) == hash(Knot((2, 3, 1))) == hash(Knot((1, 2, 3, 3)))
        moved = replace(k, members=(5, 4))
        assert moved == Knot((4, 5)) and hash(moved) == hash(Knot((4, 5)))
        assert {Knot((1, 2, 3)): "found"}[k] == "found"

    def test_knot_rejects_singletons(self):
        with pytest.raises(ValueError):
            Knot((5,))


def nodes_of(g):
    """The nodes of g: the endpoints of its edges."""
    return {v for e in g for v in (e.src, e.dst)}


def preds_of(g):
    """Predecessor lookup of g's projection, stamps dropped."""
    preds = {}
    for e in g:
        preds.setdefault(e.dst, set()).add(e.src)
    return lambda v: preds.get(v, ())


def reaches(g, a, b):
    """Whether a path of g's arcs leads from a to b."""
    frontier, seen = [a], {a}
    while frontier:
        u = frontier.pop()
        if u == b:
            return True
        for e in g:
            if e.src == u and e.dst not in seen:
                seen.add(e.dst)
                frontier.append(e.dst)
    return False


ENTERED_CYCLE = graph_of((0, 1, 1), (1, 0, 1), (0, 2, 1), (2, 3, 1),
                         (3, 2, 1))


class TestCondense:
    """The backward Tarjan pass of ``knots_from_adjacency``: the examples
    are checked through ``find_knots``, the seeded search against
    ``reachability_knots``."""

    def test_empty(self):
        assert find_knots(frozenset()) == []
        assert knots_from_adjacency((0, 1), preds_of(frozenset())) == []

    def test_cycle_is_one_component(self):
        g = graph_of((0, 1, 5), (1, 2, 1), (2, 0, 9))
        assert find_knots(g) == find_knots(g, 3) == [Knot((0, 1, 2))]
        assert find_knots(g, 4) == []

    def test_churn_union_through_state_7(self):
        g = computation_graph(knot_churn_schedule(), 7)
        # the only arc between the knot and node 4 leaves the knot
        crossing = {(e.src, e.dst) for e in g
                    if (e.src == 4) != (e.dst == 4)}
        assert crossing == {(3, 4)}
        assert find_knots(g) == [Knot((0, 1, 2, 3))]
        # 4's ancestors hold the knot; 4 alone is an SCC the knot enters
        assert knots_from_adjacency({4}, preds_of(g)) == [Knot((0, 1, 2, 3))]
        entered = g | graph_of((5, 0, 8))  # an arc into the knot
        assert find_knots(entered) == []
        assert knots_from_adjacency({4}, preds_of(entered)) == []

    @settings(max_examples=200)
    @given(observation_graphs(), st.sets(st.integers(0, 7)),
           st.sampled_from([2, 3]))
    # the knot {0, 1} enters the cycle {2, 3}: from seed 2 the walk meets
    # the knot as a DFS child, from seeds 0 and 2 as a finished SCC
    @example(ENTERED_CYCLE, {2}, 2)
    @example(ENTERED_CYCLE, {0, 2}, 2)
    def test_finds_the_knots_that_reach_a_seed(self, g, seeds, min_size):
        # seed 7 is never a node: nothing reaches it
        expected = [k for k in reachability_knots(g, min_size)
                    if any(reaches(g, k.members[0], s) for s in seeds)]
        assert knots_from_adjacency(seeds, preds_of(g), min_size) == expected


class TestFindKnots:
    def test_single_edge_has_no_knot(self):
        assert find_knots(graph_of((0, 1, 1))) == []

    def test_min_size_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            find_knots(graph_of((0, 1, 1)), min_size=1)

    def test_churn_union_examples(self):
        s = knot_churn_schedule()
        assert find_knots(computation_graph(s, 4)) == [Knot((1, 2, 3))]
        assert find_knots(computation_graph(s, 6)) == []
        assert find_knots(computation_graph(s, 7)) == [Knot((0, 1, 2, 3))]

    def test_min_size_filters_small_knots(self):
        s = knot_churn_schedule()
        assert find_knots(computation_graph(s, 4), min_size=4) == []
        assert find_knots(computation_graph(s, 7), min_size=4) == [Knot((0, 1, 2, 3))]

    def test_stamp_invariance(self):
        base = [(0, 1), (1, 2), (2, 0), (3, 0)]
        g1 = graph_of(*[(s, d, i) for i, (s, d) in enumerate(base)])
        g2 = graph_of(*[(s, d, 7) for s, d in base])
        assert find_knots(g1) == find_knots(g2)

    def test_insertion_order_invariance(self):
        rng = random.Random(8)
        triples = [(0, 1, 1), (1, 2, 2), (2, 0, 3), (3, 1, 4), (2, 4, 5)]
        expected = find_knots(graph_of(*triples))
        for _ in range(10):
            rng.shuffle(triples)
            assert find_knots(graph_of(*triples)) == expected

    @settings(max_examples=150)
    @given(observation_graphs())
    def test_knot_membership_properties(self, g):
        for k in find_knots(g):
            members = set(k.members)
            for u in members:
                for v in members:
                    assert reaches(g, u, v)
            for e in g:
                assert not (e.dst in members and e.src not in members)


class TestReachabilityKnots:
    def test_outgoing_pendant_keeps_knot(self):
        g = graph_of((0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 5, 2))
        assert reachability_knots(g) == [Knot((0, 1, 2))]

    def test_incoming_edge_destroys_knot(self):
        g = graph_of((0, 1, 1), (1, 2, 1), (2, 0, 1), (5, 0, 2))
        assert reachability_knots(g) == []

    def test_min_size_validation(self):
        with pytest.raises(ValueError):
            reachability_knots(frozenset(), min_size=0)

    @settings(max_examples=200)
    @given(observation_graphs(max_nodes=8))
    def test_agrees_with_find_knots(self, g):
        assert reachability_knots(g) == find_knots(g)

    def test_agrees_on_seeded_batch(self):
        rng = random.Random(1234)
        for _ in range(300):
            n = rng.randint(2, 8)
            g = random_digraph(rng, n, rng.choice((0.1, 0.3, 0.5)))
            assert find_knots(g) == reachability_knots(g)

    def test_agreement_respects_min_size(self):
        rng = random.Random(99)
        for _ in range(100):
            g = random_digraph(rng, rng.randint(3, 8), 0.4)
            for min_size in (2, 3, 4):
                assert (find_knots(g, min_size)
                        == reachability_knots(g, min_size))


class TestComputationGraph:
    def test_zero_prefix_is_empty(self):
        s = knot_churn_schedule()
        g = computation_graph(s, 0)
        assert g == frozenset()

    def test_prefixes_are_monotone(self):
        s = knot_churn_schedule()
        for i in range(s.horizon):
            before, after = computation_graph(s, i), computation_graph(s, i + 1)
            assert before <= after
            assert nodes_of(before) <= nodes_of(after)

    def test_through_state_7_contains_both_closing_links(self):
        g = computation_graph(knot_churn_schedule(), 7)
        assert TemporalEdge(2, 0, 7) in g  # link closing the 4-cycle
        assert TemporalEdge(0, 1, 6) in g  # the destroying link

    def test_out_of_range_raises(self):
        s = knot_churn_schedule()
        with pytest.raises(IndexError):
            computation_graph(s, -1)
        with pytest.raises(IndexError):
            computation_graph(s, s.horizon + 1)

