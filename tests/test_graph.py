import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from densetrack.errors import ChurnBudgetExceeded, EmptySubset, InvalidEdit
from densetrack.graph import (Arcs, DynamicGraph, induced_density,
                              parse_edge_list, static_diameter)
from densetrack.scenarios import build_gnp, build_planted, build_regular
from support import arcs_state, measure_dynamic_diameter


def triangle():
    return DynamicGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], churn_rate=2)


def k4():
    return DynamicGraph.from_edges(4, [(i, j) for i in range(4)
                                       for j in range(i + 1, 4)], churn_rate=2)


class TestApplyChurn:
    def test_single_removal(self):
        g = triangle()
        g.apply_churn([("remove", 0, 1)])
        assert frozenset(g.edges()) == frozenset({(0, 2), (1, 2)})
        assert g.time == 1

    def test_empty_batch_advances_time(self):
        g = triangle()
        before = frozenset(g.edges())
        g.apply_churn([])
        assert frozenset(g.edges()) == before
        assert g.time == 1

    def test_budget_boundary(self):
        g = k4()
        with pytest.raises(ChurnBudgetExceeded):
            g.apply_churn([("remove", 0, 1), ("remove", 0, 2), ("remove", 0, 3)])

    def test_invalid_removal_rolls_back(self):
        g = triangle()
        with pytest.raises(InvalidEdit):
            g.apply_churn([("remove", 0, 1), ("remove", 0, 1)])
        assert frozenset(g.edges()) == frozenset(triangle().edges())
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
    before = frozenset(g.edges())
    try:
        g.apply_churn(batch)
    except (InvalidEdit, ChurnBudgetExceeded):
        return
    assert len(before ^ frozenset(g.edges())) <= g.churn_rate


@st.composite
def churn_runs(draw):
    """A graph on 2-8 nodes and batches valid for it in turn: one that cuts
    every edge of a vertex, one that puts them back, then batches of
    toggles, which may toggle one pair twice."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    g = DynamicGraph.from_edges(n, edges, churn_rate=len(pairs) + 6)
    x = draw(st.integers(0, n - 1))
    cut = [("remove", u, v) for u, v in edges if x in (u, v)]
    batches = [cut, [("add", u, v) for _, u, v in cut]]
    present = set(edges)
    for toggles in draw(st.lists(st.lists(st.sampled_from(pairs),
                                          max_size=6), max_size=6)):
        batch = []
        for e in toggles:
            batch.append(("remove" if e in present else "add", *e))
            present ^= {e}
        batches.append(batch)
    return g, batches


@given(churn_runs())
@settings(max_examples=200, deadline=None)
def test_patched_arcs_equal_the_arcs_of_the_churned_graph(case):
    # the graph patches the arcs it owns from each batch, never rebuilding
    g, batches = case
    arcs = g.arcs()
    for batch in batches:
        read = [arcs.heads, arcs.degrees, arcs.ends]
        kept = [a.copy() for a in read]
        g.apply_churn(batch)
        assert g.arcs() is arcs
        assert arcs_state(arcs) == arcs_state(Arcs(g)), batch
        # a patch binds new arrays: whoever read the old ones keeps them
        assert all(np.array_equal(a, b) for a, b in zip(read, kept))


@pytest.mark.parametrize("batch", [
    [("add", 0, 3), ("remove", 1, 3)],         # removes an absent edge
    [("remove", 0, 1), ("add", 1, 2)],         # adds a present one
    [("add", 0, 3), ("remove", 0, 2), ("add", 3, 3)],  # a self-loop
    [("remove", 1, 2), ("flip", 0, 1)],        # an unknown op
])
def test_a_failed_batch_leaves_the_arcs_as_they_were(batch):
    # the arcs are patched only once the whole batch has applied
    g = DynamicGraph.from_edges(4, [(0, 1), (0, 2), (1, 2)], churn_rate=3)
    before = arcs_state(g.arcs())
    with pytest.raises(InvalidEdit):
        g.apply_churn(batch)
    assert arcs_state(g.arcs()) == arcs_state(Arcs(g)) == before


def test_churn_on_a_copy_leaves_the_original_arcs():
    # a copy starts without arcs: shared ones would follow its churn
    g = DynamicGraph.from_edges(4, [(0, 1), (0, 2), (1, 2)], churn_rate=2)
    before = arcs_state(g.arcs())
    h = g.copy()
    h.arcs()
    h.apply_churn([("remove", 0, 1), ("add", 2, 3)])
    assert arcs_state(g.arcs()) == before == arcs_state(Arcs(g))
    assert arcs_state(h.arcs()) == arcs_state(Arcs(h)) != before


class TestDiameters:
    def test_static_connected_trace_equals_static_diameter(self):
        g = DynamicGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        trace = [frozenset(g.edges())] * 10
        assert static_diameter(g) == 4
        assert measure_dynamic_diameter(trace, 5) == 4

    def test_complete_graph_trace(self):
        g = DynamicGraph.from_edges(4, [(i, j) for i in range(4)
                                        for j in range(i + 1, 4)])
        assert measure_dynamic_diameter([frozenset(g.edges())] * 3, 4) == 1

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
            trace = [frozenset(g.edges())] * (2 * n)
            measured = measure_dynamic_diameter(trace, n)
            if d == math.inf:
                assert measured == math.inf or measured >= 1
            else:
                assert measured == max(d, 1)


def scipy_diameter(g: DynamicGraph) -> float:
    """The largest all-pairs hop distance, by scipy (a test-only oracle)."""
    n = g.node_count
    rows, cols = zip(*g.edges()) if g.edge_count else ((), ())
    dist = shortest_path(csr_matrix(([1] * len(rows), (rows, cols)),
                                    shape=(n, n)),
                         directed=False, unweighted=True)
    return dist.max()


def assert_diameter(g: DynamicGraph, want: int | float | None = None):
    """``static_diameter(g)`` equals the scipy oracle (and ``want``), as an
    int when finite and ``inf`` when not."""
    d = static_diameter(g)
    assert d == scipy_diameter(g)
    if want is not None:
        assert d == want
    assert type(d) is (float if d == math.inf else int)


def path(n):
    return DynamicGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return DynamicGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestBitsetDiameter:
    def test_one_node_is_zero(self):
        assert_diameter(DynamicGraph(1), 0)

    def test_two_isolated_nodes_are_infinite(self):
        assert_diameter(DynamicGraph(2), math.inf)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_path(self, n):
        assert_diameter(path(n), n - 1)

    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_star(self, n):
        assert_diameter(DynamicGraph.from_edges(
            n, [(0, v) for v in range(1, n)]), 2)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_complete_graph(self, n):
        assert_diameter(DynamicGraph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)]), 1)

    @pytest.mark.parametrize("n", [3, 4, 7, 8, 15, 16])
    def test_cycle(self, n):
        assert_diameter(cycle(n), n // 2)

    def test_two_components_are_infinite(self):
        g = DynamicGraph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5),
                                        (5, 6), (6, 3)])
        assert_diameter(g, math.inf)

    @given(st.sampled_from(["gnp", "regular", "planted"]),
           st.integers(1, 50), st.floats(0.0, 0.3), st.integers(0, 2 ** 32))
    @settings(max_examples=200, deadline=None)
    def test_random_graphs_match_scipy(self, kind, n, p, seed):
        # sparse draws are often disconnected: every case is checked
        rng = np.random.default_rng(seed)
        if kind == "gnp":
            built = build_gnp(rng, n, p)
        elif kind == "regular":
            d = int(rng.integers(0, min(n, 4)))
            built = build_regular(rng, n + n % 2, d)
        else:
            built = build_planted(rng, n, int(rng.integers(1, n + 1)), p,
                                  bool(rng.integers(2)))
        assert_diameter(built.graph)


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
