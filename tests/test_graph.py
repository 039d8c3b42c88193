import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from densetrack.errors import ChurnBudgetExceeded, EmptySubset, InvalidEdit
from densetrack.graph import (DynamicGraph, induced_density, parse_edge_list,
                              static_diameter)
from support import measure_dynamic_diameter


def triangle():
    return DynamicGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], churn_rate=2)


def k4():
    return DynamicGraph.from_edges(4, [(i, j) for i in range(4)
                                       for j in range(i + 1, 4)], churn_rate=2)


class TestApplyChurn:
    def test_single_removal(self):
        g = triangle()
        g.apply_churn([("remove", 0, 1)])
        assert g.snapshot() == frozenset({(0, 2), (1, 2)})
        assert g.time == 1

    def test_empty_batch_advances_time(self):
        g = triangle()
        before = g.snapshot()
        g.apply_churn([])
        assert g.snapshot() == before
        assert g.time == 1

    def test_budget_boundary(self):
        g = k4()
        with pytest.raises(ChurnBudgetExceeded):
            g.apply_churn([("remove", 0, 1), ("remove", 0, 2), ("remove", 0, 3)])

    def test_invalid_removal_rolls_back(self):
        g = triangle()
        with pytest.raises(InvalidEdit):
            g.apply_churn([("remove", 0, 1), ("remove", 0, 1)])
        assert g.snapshot() == triangle().snapshot()
        assert g.time == 0

    def test_add_existing_edge_rejected(self):
        g = triangle()
        with pytest.raises(InvalidEdit):
            g.apply_churn([("add", 0, 1)])

    def test_self_loop_rejected(self):
        g = triangle()
        with pytest.raises(InvalidEdit):
            g.apply_churn([("add", 1, 1)])


class TestInducedDensity:
    def test_complete_graph(self):
        assert induced_density(k4(), range(4)).density == Fraction(3, 2)

    def test_path(self):
        g = DynamicGraph.from_edges(3, [(0, 1), (1, 2)])
        assert induced_density(g, {0, 1, 2}).density == Fraction(2, 3)

    def test_k4_plus_pendant(self):
        g = DynamicGraph.from_edges(5, [(i, j) for i in range(4)
                                        for j in range(i + 1, 4)] + [(3, 4)])
        assert induced_density(g, range(5)).density == Fraction(7, 5)

    def test_empty_subset(self):
        with pytest.raises(EmptySubset):
            induced_density(triangle(), set())

    def test_exactness(self):
        g = k4()
        sd = induced_density(g, range(4))
        assert sd.density * len(sd.members) == g.edge_count


@given(st.sets(st.integers(0, 5), min_size=1),
       st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_density_monotone_in_internal_edges(members, u, v):
    # adding an edge inside S never decreases the induced density
    g = DynamicGraph(6, churn_rate=1)
    if u == v or u not in members or v not in members:
        return
    before = induced_density(g, members).density
    g.apply_churn([("add", u, v)])
    assert induced_density(g, members).density >= before


@given(st.lists(st.tuples(st.sampled_from(["add", "remove"]),
                          st.integers(0, 7), st.integers(0, 7)), max_size=4))
@settings(max_examples=120, deadline=None)
def test_churn_symmetric_difference_bounded(batch):
    g = DynamicGraph.from_edges(8, [(0, 1), (2, 3), (4, 5)], churn_rate=4)
    before = g.snapshot()
    try:
        g.apply_churn(batch)
    except (InvalidEdit, ChurnBudgetExceeded):
        return
    assert len(before ^ g.snapshot()) <= g.churn_rate


class TestDiameters:
    def test_static_connected_trace_equals_static_diameter(self):
        g = DynamicGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        trace = [g.snapshot()] * 10
        assert static_diameter(g) == 4
        assert measure_dynamic_diameter(trace, 5) == 4

    def test_complete_graph_trace(self):
        g = DynamicGraph.from_edges(4, [(i, j) for i in range(4)
                                        for j in range(i + 1, 4)])
        assert measure_dynamic_diameter([g.snapshot()] * 3, 4) == 1

    def test_alternating_edge(self):
        # edge present on even rounds only: odd-parity floods wait one round
        trace = [frozenset([(0, 1)]) if t % 2 == 0 else frozenset()
                 for t in range(8)]
        assert measure_dynamic_diameter(trace, 2) == 2

    def test_never_connected(self):
        assert measure_dynamic_diameter([frozenset()] * 5, 2) == math.inf
        d = static_diameter(DynamicGraph(2))
        assert type(d) is float and d == math.inf

    def test_random_static_cross_check(self):
        import numpy as np
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(4, 12))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4]
            g = DynamicGraph.from_edges(n, edges)
            d = static_diameter(g)
            trace = [g.snapshot()] * (2 * n)
            measured = measure_dynamic_diameter(trace, n)
            if d == math.inf:
                assert measured == math.inf or measured >= 1
            else:
                assert measured == max(d, 1)


class TestEdgeList:
    def test_parse_with_comments(self):
        g, mapping = parse_edge_list("0 1\n# hi\n1 2\n\n0 2 # trailing\n")
        assert g.node_count == 3 and g.edge_count == 3

    def test_external_ids_remapped(self):
        g, mapping = parse_edge_list("10 30\n30 20\n")
        assert g.node_count == 3
        assert mapping == {10: 0, 20: 1, 30: 2}
        assert g.has_edge(0, 2) and g.has_edge(1, 2)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidEdit):
            parse_edge_list("0 1\n1 0\n")
