import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotid import (
    Knot,
    TemporalEdge,
    computation_graph,
    find_knots,
    reachability_knots,
)
from knotid.graph import _strongly_connected_components
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

    def test_knot_rejects_singletons(self):
        with pytest.raises(ValueError):
            Knot((5,))


def nodes_of(g):
    """The nodes of g: the endpoints of its edges."""
    return {v for e in g for v in (e.src, e.dst)}


def projection(g):
    """Static adjacency of g: node -> set of successors, stamps dropped."""
    adjacency = {}
    for e in g:
        adjacency.setdefault(e.src, set()).add(e.dst)
    return adjacency


def components_of(g):
    """g's SCCs as found by the Tarjan behind ``find_knots``, canonical."""
    raw = _strongly_connected_components(sorted(nodes_of(g)), projection(g))
    return sorted(tuple(sorted(c)) for c in raw)


class TestCondense:
    """The SCC split inside ``knots_from_adjacency``: the examples are
    checked through ``find_knots``, the partition on
    ``_strongly_connected_components`` itself."""

    def test_empty(self):
        assert components_of(frozenset()) == []
        assert find_knots(frozenset()) == []

    def test_cycle_is_one_component(self):
        g = graph_of((0, 1, 5), (1, 2, 1), (2, 0, 9))
        assert components_of(g) == [(0, 1, 2)]
        assert find_knots(g) == [Knot((0, 1, 2))]

    def test_churn_union_through_state_7(self):
        g = computation_graph(knot_churn_schedule(), 7)
        assert components_of(g) == [(0, 1, 2, 3), (4,)]
        # the only arc between the two components leaves the knot
        crossing = {(e.src, e.dst) for e in g
                    if (e.src == 4) != (e.dst == 4)}
        assert crossing == {(3, 4)}
        assert find_knots(g) == [Knot((0, 1, 2, 3))]
        entered = g | graph_of((5, 0, 8))  # an arc into the knot
        assert find_knots(entered) == []

    @settings(max_examples=100)
    @given(observation_graphs())
    def test_partition_properties(self, g):
        adjacency = projection(g)

        def reach_from(start):
            seen, frontier = {start}, [start]
            while frontier:
                for w in adjacency.get(frontier.pop(), ()):
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            return seen

        nodes = nodes_of(g)
        reach = {v: reach_from(v) for v in nodes}
        got = components_of(g)
        seen = [v for comp in got for v in comp]
        assert sorted(seen) == sorted(nodes)  # disjoint cover
        assert len(seen) == len(set(seen))
        for comp in got:  # each is its members' mutual-reachability class
            for v in comp:
                assert set(comp) == {w for w in nodes
                                     if w in reach[v] and v in reach[w]}
        # component DAG is acyclic: longest-path labelling must terminate
        member_of = {v: i for i, comp in enumerate(got) for v in comp}
        arcs = {(member_of[e.src], member_of[e.dst]) for e in g
                if member_of[e.src] != member_of[e.dst]}
        order = {}
        changed = True
        while changed:
            changed = False
            for i, j in sorted(arcs):
                need = order.get(i, 0) + 1
                if order.get(j, 0) < need:
                    order[j] = need
                    changed = True
                    assert need <= len(got), "cycle in component DAG"


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
        adjacency = {}
        for e in g:
            adjacency.setdefault(e.src, set()).add(e.dst)

        def reaches(a, b):
            frontier, seen = [a], {a}
            while frontier:
                u = frontier.pop()
                if u == b:
                    return True
                for w in adjacency.get(u, ()):
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            return a == b

        for k in find_knots(g):
            members = set(k.members)
            for u in members:
                for v in members:
                    assert reaches(u, v)
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

