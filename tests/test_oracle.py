import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import densetrack.oracle as oracle
from densetrack import harness
from densetrack.errors import (InvalidEdit, TooLargeForEnumeration,
                               TooLargeForMaxFlow)
from densetrack.graph import Arcs, DynamicGraph, induced_density
from densetrack.oracle import (OracleCache, _subset_edge_counts,
                               at_least_k_bounds, brute_force_densest,
                               exact_at_least_k, exact_densest,
                               graph_content_hash, greedy_at_least_k_witness,
                               peel_reference)
from densetrack.scenarios import build_graph, build_regular
from support import REPO, arcs_builds, edge_list_content_hash


def complete(n):
    return DynamicGraph.from_edges(n, [(i, j) for i in range(n)
                                       for j in range(i + 1, n)])


def k4_plus_pendant():
    return DynamicGraph.from_edges(5, [(i, j) for i in range(4)
                                       for j in range(i + 1, 4)] + [(3, 4)])


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return DynamicGraph.from_edges(n, edges)


def call_counter(monkeypatch, name="maximum_flow"):
    """The list that gets one entry per call of ``oracle.<name>``."""
    calls = []
    fn = getattr(oracle, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(oracle, name, counted)
    return calls


class TestExactDensest:
    def test_k5_whole_graph(self):
        res = exact_densest(complete(5))
        assert res.density == Fraction(2) and res.members == frozenset(range(5))

    def test_k4_plus_pendant(self):
        res = exact_densest(k4_plus_pendant())
        assert res.density == Fraction(3, 2)
        assert res.members == frozenset(range(4))

    def test_two_triangles_with_bridge(self):
        # the whole graph (7 edges over 6 nodes) beats either triangle
        g = DynamicGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4),
                                        (4, 5), (3, 5), (2, 3)])
        res = exact_densest(g)
        assert res.density == Fraction(7, 6)
        assert brute_force_densest(g).density == Fraction(7, 6)

    def test_edgeless(self):
        res = exact_densest(DynamicGraph(3))
        assert res.density == 0 and res.members == frozenset({0})

    def test_single_node(self):
        res = exact_densest(DynamicGraph(1))
        assert res.density == 0

    def test_ties_return_the_union_of_densest_sets(self):
        # two disjoint K4s and an isolated node
        k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        g = DynamicGraph.from_edges(9, k4 + [(u + 4, v + 4) for u, v in k4])
        res = exact_densest(g)
        assert res.density == Fraction(3, 2)
        assert res.members == frozenset(range(8))

    def test_targeted_core_start_graph_takes_few_flows(self, monkeypatch):
        flows = call_counter(monkeypatch)
        g = build_graph({"kind": "planted-dense", "n": 100, "clique": 69,
                         "noise_p": 0.02, "hub_star": True}, 0).graph
        exact_densest(g)
        assert len(flows) <= 3

    @given(st.integers(1, 30), st.floats(0.0, 1.0), st.integers(1, 5),
           st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_reversed_residual_is_the_transpose(self, n, p, num, den, seed):
        # isolated vertices included: they have no source arc
        g = random_graph(np.random.default_rng(seed), n, p)
        if not g.edge_count:
            return
        tester = oracle._VertexNetwork(g)
        _, residual = tester.run(num, den)
        want = tester.arcs(residual).T.tocsr()
        got = tester.arcs(tester.reverse(residual, num, den))
        assert got.shape == want.shape and (got != want).nnz == 0
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)

    def test_capacities_past_int32_are_refused_before_any_flow(
            self, monkeypatch):
        # 2 * 50,000 * 21,475 = 2,147,500,000 >= 2**31: scipy would wrap
        # such capacities to int32 without a warning
        def no_flow(*args, **kwargs):
            raise AssertionError("a max-flow ran")

        monkeypatch.setattr(oracle, "maximum_flow", no_flow)
        edges = [(i, i + 1) for i in range(0, 42950, 2)]
        g = DynamicGraph.from_edges(50_000, edges)
        assert g.edge_count == 21_475
        with pytest.raises(TooLargeForMaxFlow, match="int32"):
            exact_densest(g)


@st.composite
def graphs(draw, max_n=14):
    """A graph of 1 to ``max_n`` nodes, some of them isolated."""
    n = draw(st.integers(1, max_n), label="n")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs)), label="edges") if pairs else []
    lone = draw(st.sets(st.integers(0, n - 1), max_size=n // 2),
                label="isolated")
    return DynamicGraph.from_edges(n, [(u, v) for u, v in edges
                                       if u not in lone and v not in lone])


def start_sets(n):
    """Start sets over ``n`` nodes: empty, one node, every node or any."""
    nodes = st.integers(0, n - 1)
    return st.one_of(st.just(frozenset()), nodes.map(lambda v: {v}),
                     st.just(range(n)), st.frozensets(nodes))


class TestWarmStart:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_start_set_gives_the_cold_answer(self, data):
        g = data.draw(graphs())
        start = data.draw(start_sets(g.node_count), label="start")
        cold = exact_densest(g)
        warm = exact_densest(g, start=start)
        assert (warm.members, warm.density) == (cold.members, cold.density)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_last_core_after_a_few_edits_gives_the_cold_answer(self, data):
        # as the targeted adversary does: start from the core of the graph
        # a few edits ago, up to three removals inside that core and three
        # flips anywhere; the removals can leave the old core less dense
        # than the old optimum
        g = data.draw(graphs(max_n=16))
        core = exact_densest(g).members
        inside = sorted((u, v) for u, v in g.edges()
                        if u in core and v in core)
        pairs = [(u, v) for u in range(g.node_count)
                 for v in range(u + 1, g.node_count)]
        picks = data.draw(st.lists(st.sampled_from(inside), unique=True,
                                   max_size=3),
                          label="core removals") if inside else []
        if pairs:
            picks += data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                        max_size=3), label="flips")
        edges = set(g.edges()) ^ set(picks)
        g = DynamicGraph.from_edges(g.node_count, sorted(edges))
        warm = exact_densest(g, start=core)
        cold = exact_densest(g)
        assert (warm.members, warm.density) == (cold.members, cold.density)

    def test_a_densest_start_certifies_with_one_flow(self, monkeypatch):
        flows = call_counter(monkeypatch)
        g = build_graph({"kind": "planted-dense", "n": 100, "clique": 69,
                         "noise_p": 0.02, "hub_star": True}, 0).graph
        cold = exact_densest(g)
        flows.clear()
        assert exact_densest(g, start=cold.members) == cold
        assert len(flows) == 1

    def test_arcs_are_read_only_when_they_describe_the_graph(
            self, monkeypatch):
        # a solve reads the arcs the graph owns, which describe it always:
        # it builds none, and after churn, which patches them, it still
        # gives the cold answer of a copy that builds its own
        g = k4_plus_pendant()
        g.churn_rate = 1
        g.arcs()
        builds = arcs_builds(monkeypatch)
        assert exact_densest(g) == exact_densest(g.copy())
        assert len(builds) == 1  # the copy's
        g.apply_churn([("remove", 0, 1)])
        builds.clear()
        cold = exact_densest(g.copy())
        assert exact_densest(g, start=[0]) == exact_densest(g) == cold
        assert len(builds) == 1  # the copy's

    @pytest.mark.parametrize("start", [[-1], [3], [0, 2, 7], [-4, 1]])
    @pytest.mark.parametrize("edges", [[], [(0, 1), (1, 2)]])
    def test_ids_outside_the_graph_raise(self, start, edges):
        g = DynamicGraph.from_edges(3, edges)
        with pytest.raises(InvalidEdit, match="outside graph"):
            exact_densest(g, start=start)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_network_density_is_the_induced_density(self, data):
        g = data.draw(graphs(max_n=20))
        subset = data.draw(st.frozensets(st.integers(0, g.node_count - 1),
                                         min_size=1), label="subset")
        tester = oracle._VertexNetwork(g)
        mask = np.zeros(g.node_count, bool)
        mask[list(subset)] = True
        want = induced_density(g, subset)
        assert tester.edge_count(mask) == want.edge_count
        assert tester.density(mask) == want.density

    def test_targeted_core_refreshes_take_few_flows(self, monkeypatch):
        # the bench's targeted-core workload cut to 60 rounds: 30 core
        # refreshes and 3 scored queries, at 2.0 flows per solve when
        # every solve starts at m/n.  The engine, the refreshes and the
        # queries' hashes and solves all read the arcs the graph owns
        monkeypatch.syspath_prepend(str(REPO / "bench"))
        import workloads
        sys.modules.pop("workloads", None)
        conf = {**workloads.targeted_core(0).runs[0],
                "duration": {"rounds": 60}}
        flows = call_counter(monkeypatch)
        solves = call_counter(monkeypatch, "exact_densest")
        builds = arcs_builds(monkeypatch)
        report = harness.run_scenario(conf)
        assert report.rounds_run == 60 and len(solves) >= 30
        assert len(report.queries) == 3
        assert len(flows) <= 1.25 * len(solves)
        assert len(builds) == 1


class TestMinDegree:
    def test_low_degree_member_is_refused(self):
        # the pendant has degree 1 < 7/5 in K4 plus a pendant
        arcs = Arcs(k4_plus_pendant())
        tails, heads = arcs.tails, arcs.heads
        everyone = np.ones(5, bool)
        with pytest.raises(AssertionError, match="at node 4"):
            oracle._check_min_degree(tails, heads, everyone, Fraction(7, 5))

    def test_degree_equal_to_the_density_passes(self):
        # in K4 every degree is 3: d*q >= p holds at 3 and fails above it
        arcs = Arcs(k4_plus_pendant())
        tails, heads = arcs.tails, arcs.heads
        k4 = np.array([True] * 4 + [False])
        oracle._check_min_degree(tails, heads, k4, Fraction(3))
        with pytest.raises(AssertionError, match="at node 0"):
            oracle._check_min_degree(tails, heads, k4, Fraction(31, 10))

    def test_every_solve_checks_its_answer(self, monkeypatch):
        checked = []
        check = oracle._check_min_degree

        def spy(tails, heads, members, density):
            checked.append((frozenset(np.flatnonzero(members).tolist()),
                            density))
            return check(tails, heads, members, density)

        monkeypatch.setattr(oracle, "_check_min_degree", spy)
        rng = np.random.default_rng(11)
        answers = []
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 12)), 0.4)
            if g.edge_count:
                answers.append(exact_densest(g))
                answers.append(exact_densest(g, start=answers[-1].members))
            answers.append(exact_at_least_k(g, 1))
            exact_at_least_k(g, 2)  # only k <= 1 is an unconstrained optimum
        assert checked == [(a.members, a.density) for a in answers]


class TestAtLeastK:
    def test_k5_takes_whole_graph(self):
        res = exact_at_least_k(k4_plus_pendant(), 5)
        assert res.density == Fraction(7, 5)
        assert res.members == frozenset(range(5))

    def test_k4_takes_clique(self):
        res = exact_at_least_k(k4_plus_pendant(), 4)
        assert res.density == Fraction(3, 2)

    def test_k1_equals_unconstrained(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(3, 11)), 0.4)
            assert exact_at_least_k(g, 1).density == exact_densest(g).density

    def test_density_non_increasing_in_k(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 10, 0.4)
        dens = [exact_at_least_k(g, k).density for k in range(1, 11)]
        assert all(a >= b for a, b in zip(dens, dens[1:]))

    def test_enumeration_limit(self):
        with pytest.raises(TooLargeForEnumeration):
            exact_at_least_k(DynamicGraph(25), 3)

    def test_lexicographically_smallest_tie(self):
        # two disjoint triangles: {0,1,2} and {3,4,5} tie; lexicographic
        # order picks the lower-id one
        g = DynamicGraph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                        (3, 4), (4, 5), (3, 5)])
        res = brute_force_densest(g)
        assert res.members == frozenset({0, 1, 2})


class TestCrossValidation:
    def test_maxflow_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(4, 14))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.6)))
            assert exact_densest(g).density == brute_force_densest(g).density

    def test_members_are_the_union_of_all_optimal_sets(self):
        rng = np.random.default_rng(10)
        for trial in range(60):
            n = int(rng.integers(2, 13))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.6)))
            if trial % 2:
                # ties are rare in random graphs: add a shuffled copy of the
                # first half so every densest set has a twin
                half = n // 2
                twin = rng.permutation(half) + n - half
                g = DynamicGraph.from_edges(n, [
                    e for u, v in g.edges() if v < half
                    for e in ((u, v), (int(twin[u]), int(twin[v])))])
            if g.edge_count == 0:
                continue
            masks = np.arange(1 << n, dtype=np.int64)
            sizes = np.bitwise_count(masks).astype(np.int64)
            counts = _subset_edge_counts(g).astype(np.int64)
            res = exact_densest(g)
            # |E(S)| * den == num * |S| is exact, no float comparison
            optimal = masks[(counts * res.density.denominator
                             == res.density.numerator * sizes) & (sizes > 0)]
            union = int(np.bitwise_or.reduce(optimal))
            assert res.members == frozenset(
                v for v in range(n) if union >> v & 1)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_members_are_every_optimal_set_and_keep_the_min_degree(
            self, data):
        n = data.draw(st.integers(2, 14), label="n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                   min_size=1, max_size=len(pairs)),
                          label="edges")
        # isolated vertices: drop every edge at a drawn set of nodes
        lone = data.draw(st.sets(st.integers(0, n - 1), max_size=n // 2),
                         label="isolated")
        edges = [(u, v) for u, v in edges if u not in lone and v not in lone]
        if n >= 4 and data.draw(st.booleans(), label="twins"):
            # twin halves: each edge of the low half is copied onto the high
            # half, so every densest set there has a twin and ties abound
            half = n // 2
            edges = [e for u, v in edges if v < half
                     for e in ((u, v), (u + n - half, v + n - half))]
        if not edges:
            return
        g = DynamicGraph.from_edges(n, edges)
        res = exact_densest(g)
        masks = np.arange(1 << n, dtype=np.int64)
        sizes = np.bitwise_count(masks).astype(np.int64)
        counts = _subset_edge_counts(g).astype(np.int64)
        dens = res.density
        assert (counts * dens.denominator <= dens.numerator * sizes).all()
        optimal = masks[(counts * dens.denominator == dens.numerator * sizes)
                        & (sizes > 0)]
        union = int(np.bitwise_or.reduce(optimal))
        assert res.members == frozenset(v for v in range(n)
                                        if union >> v & 1)
        for v in res.members:
            assert len(g.adj[v] & res.members) >= dens

    @given(st.integers(3, 40), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_regular_graph_takes_one_flow(self, n, d, seed):
        # m/n = d/2 is already optimal, so the first cut certifies it
        d = min(d, n - 1)
        if n * d % 2:
            d -= 1
        if d == 0:
            return
        g = build_regular(np.random.default_rng(seed), n, d).graph
        with pytest.MonkeyPatch.context() as mp:
            flows = call_counter(mp)
            res = exact_densest(g)
        assert len(flows) == 1
        assert res.density == Fraction(d, 2)
        assert res.members == frozenset(range(n))

    def test_no_subset_beats_optimum(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng, 14, 0.3)
        best = exact_densest(g).density
        for _ in range(10000):
            size = int(rng.integers(1, 15))
            members = rng.choice(14, size=size, replace=False)
            assert induced_density(g, members).density <= best

    def test_optimal_degree_property(self):
        # every optimum member keeps induced degree >= the optimal density
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_graph(rng, 12, 0.35)
            res = exact_densest(g)
            for v in res.members:
                deg = len(g.adj[v] & res.members)
                assert Fraction(deg) >= res.density


class TestPeelReference:
    def test_triangle_plus_pendant_levels(self):
        g = DynamicGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        res = peel_reference(g, 1.01)
        assert [sorted(l) for l in res.levels] == [[0, 1, 2, 3], [0, 1, 2]]

    def test_star_fixed_point(self):
        g = DynamicGraph.from_edges(6, [(0, i) for i in range(1, 6)])
        res = peel_reference(g, 1.01)
        assert res.levels == (frozenset(range(6)),)
        assert res.closed_by == "fixed-point"

    def test_k5_survives_any_factor_up_to_two(self):
        g = complete(5)
        for factor in (1.01, 1.5, 2.0):
            res = peel_reference(g, factor)
            assert res.levels[0] == frozenset(range(5))
            assert res.closed_by == "fixed-point"

    def test_best_level_result(self):
        g = k4_plus_pendant()
        res = peel_reference(g, 1.02)
        ratios = [ratio for _, _, ratio in res.records]
        best = induced_density(g, res.levels[ratios.index(max(ratios))])
        assert best.density == Fraction(3, 2)


class TestBounds:
    def test_witness_reaches_size(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, 30, 0.2)
        witness, dens = greedy_at_least_k_witness(g, 25)
        assert len(witness) >= 25
        assert dens == induced_density(g, witness).density

    def test_bounds_bracket_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            g = random_graph(rng, 12, 0.4)
            for k in (3, 6, 10):
                lower, upper, _ = at_least_k_bounds(g, k)
                exact = exact_at_least_k(g, k).density
                assert lower == upper == exact  # exact at this scale

    def test_bounds_sound_beyond_enumeration(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, 40, 0.15)
        lower, upper, witness = at_least_k_bounds(g, 30)
        assert lower <= upper
        assert len(witness) >= 30
        assert induced_density(g, witness).density == lower


class TestCache:
    def test_equal_graphs_share_one_answer(self):
        cache = OracleCache()
        first = cache.exact_densest(k4_plus_pendant())
        assert cache.exact_densest(k4_plus_pendant()) is first

    def test_content_addressing(self):
        g1 = k4_plus_pendant()
        g2 = k4_plus_pendant()
        assert graph_content_hash(g1) == graph_content_hash(g2)
        g2.apply_churn([])  # time changes, content does not
        assert graph_content_hash(g1) == graph_content_hash(g2)

    @given(graphs(max_n=20))
    @example(DynamicGraph(1))
    @example(DynamicGraph(5))
    @example(DynamicGraph.from_edges(5, [(3, 4), (1, 3)]))
    @settings(max_examples=200, deadline=None)
    def test_content_hash_is_the_edge_list_hash(self, g):
        # graphs with no edges and with isolated vertices hash as before
        assert graph_content_hash(g) == edge_list_content_hash(g)
