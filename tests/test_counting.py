import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from densetrack import counting
from densetrack.adversary import ScriptedAdversary
from densetrack.graph import DynamicGraph
from densetrack.counting import TuplePart
from densetrack.netsim import assert_bandwidth


class StubRng:
    """Forces deterministic draw values through the sampler entry points."""

    def __init__(self, geometric_value=1, uniform_value=0.5):
        self.geometric_value = geometric_value
        self.uniform_value = uniform_value

    def geometric(self, p, size=None):
        return np.full(size, self.geometric_value, dtype=np.int64)

    def random(self, size=None):
        return np.full(size, self.uniform_value, dtype=np.float64)


def complete_graph(n):
    return DynamicGraph.from_edges(n, [(i, j) for i in range(n)
                                       for j in range(i + 1, n)])


KIND_NAMES = list(counting.KINDS)


class TestTupleLengths:
    def test_coarse_formula(self):
        assert counting.coarse_tuple_len(0.01) == math.ceil(65 * math.log(100))
        assert counting.coarse_tuple_len(0.1) == math.ceil(65 * math.log(10))

    def test_fine_formula(self):
        # c=1 gives 108*ln(N)/eps^2
        assert counting.fine_tuple_len(100, 0.3) == math.ceil(
            108 * math.log(100) / 0.09)
        assert counting.fine_tuple_len(1, 1.0) >= 1  # floor at N=2


class TestForcedDraws:
    def test_single_member_forced_heads_outputs_two(self):
        # one member, tuple length 1, an immediate head means one toss: the
        # LogLog law gives 2**(1 - (gamma/ln 2 + 1/2)) ~ 0.794, and twice
        # that still upper-bounds the single member
        st_, _ = counting.geo_stage("t", 1, 1, True, StubRng(geometric_value=1))
        coarse = counting.finalize_coarse(st_.acc)
        assert coarse == pytest.approx(
            2.0 ** (1.0 - (EULER_GAMMA / math.log(2.0) + 0.5)), rel=1e-12)
        assert 2 * coarse >= 1

    def test_single_member_unit_exponentials(self):
        rng = StubRng(uniform_value=1.0 - math.exp(-1.0))
        stage = counting.exp_stage("t", 1, 8, True, rng)
        assert counting.finalize_fine(stage.acc) == pytest.approx(1.0, abs=1e-12)

    def test_toss_cap_truncation_recorded(self):
        vals, truncated = counting.geometric_tosses(
            StubRng(geometric_value=80), (3, 4))
        assert truncated == 12
        assert vals.max() == counting.GEO_TOSS_CAP


class TestEmptySubset:
    def test_nodes_empty_everywhere(self):
        g = complete_graph(5)
        res = counting.run_node_count(g, set(), 1, epsilon=0.5)
        assert res.estimates == [0.0] * 5

    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_identity_finalizes_to_zero(self, kind):
        stage = counting.MergeStage.empty("t", kind, 1, 5)
        assert counting.KINDS[kind].finalize(stage.acc) == 0.0

    def test_edges_edgeless_subset(self):
        g = DynamicGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        res = counting.run_edge_count(g, {0, 3}, 3, epsilon=0.5, seed=2)
        assert res.estimates == [0.0] * 4


class TestExactMode:
    def test_nodes_exact(self):
        g = complete_graph(6)
        res = counting.run_node_count(g, {0, 2, 4}, 1, exact=True)
        assert res.estimates == [3.0] * 6

    def test_single_edge(self):
        g = DynamicGraph.from_edges(2, [(0, 1)])
        res = counting.run_edge_count(g, {0, 1}, 1, exact=True)
        assert res.estimates == [1.0, 1.0]

    def test_triangle_edges(self):
        g = complete_graph(3)
        res = counting.run_edge_count(g, {0, 1, 2}, 1, exact=True)
        assert res.estimates == [3.0] * 3

    def test_exact_vs_estimate_k10(self):
        g = complete_graph(10)
        exact = counting.run_edge_count(g, set(range(10)), 1, exact=True)
        est = counting.run_edge_count(g, set(range(10)), 1, epsilon=0.1, seed=4)
        assert exact.estimates[0] == 45.0
        assert abs(est.estimates[0] - 45.0) <= 0.1 * 45.0


class TestScheduleAndAgreement:
    def test_two_stage_window_is_exactly_2d(self):
        g = complete_graph(8)
        for d in (1, 2, 3):
            res = counting.run_node_count(g, set(range(8)), d, epsilon=0.5)
            assert res.rounds_used == 2 * d
            res = counting.run_edge_count(g, set(range(8)), d, epsilon=0.5)
            assert res.rounds_used == 2 * d

    def test_agreement_static(self):
        g = DynamicGraph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4),
                                        (4, 5), (5, 6), (0, 6)])
        res = counting.run_node_count(g, {1, 3, 5}, 4, epsilon=0.5, seed=8)
        assert len(set(res.estimates)) == 1

    def test_agreement_under_churn(self):
        # protected star keeps the dynamic diameter at 2 while a fringe edge
        # flaps every round
        edges = [(0, i) for i in range(1, 6)] + [(1, 2)]
        g = DynamicGraph.from_edges(6, edges, churn_rate=1)
        ops = []
        present = True
        for r in range(30):
            ops.append({"round": r, "op": "remove" if present else "add",
                        "u": 1, "v": 2})
            present = not present
        adv = ScriptedAdversary.load(ops, g, rate=1)
        res = counting.run_node_count(g, {1, 3, 5}, 2, epsilon=0.5, seed=3,
                                      adversary=adv)
        assert len(set(res.estimates)) == 1


class TestMergeAlgebra:
    @given(st.lists(st.integers(1, 64), min_size=3, max_size=3),
           st.lists(st.integers(1, 64), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_max_merge_commutes(self, a, b):
        pa = TuplePart("t", "geo", np.array(a, np.uint8))
        pb = TuplePart("t", "geo", np.array(b, np.uint8))
        s1 = counting.MergeStage.empty("t", "geo", 1, 3)
        s1.absorb(pa), s1.absorb(pb)
        s2 = counting.MergeStage.empty("t", "geo", 1, 3)
        s2.absorb(pb), s2.absorb(pa)
        assert np.array_equal(s1.acc, s2.acc)

    @given(st.lists(st.floats(0.001, 50), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_min_merge_idempotent(self, a):
        part = TuplePart("t", "exp", np.array(a))
        s = counting.MergeStage.empty("t", "exp", 1, 4)
        s.absorb(part)
        once = s.acc.copy()
        s.absorb(part)
        assert np.array_equal(once, s.acc)

    @given(st.lists(st.integers(1, 64), min_size=2, max_size=2),
           st.lists(st.integers(1, 64), min_size=2, max_size=2),
           st.lists(st.integers(1, 64), min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_max_merge_associates(self, a, b, c):
        def merged(order):
            s = counting.MergeStage.empty("t", "geo", 1, 2)
            for vals in order:
                s.absorb(TuplePart("t", "geo", np.array(vals, np.uint8)))
            return s.acc

        # any absorb order gives the same accumulator
        assert np.array_equal(merged([a, b, c]), merged([c, b, a]))
        assert np.array_equal(merged([a, b, c]), merged([b, a, c]))

    def test_all_infinite_tuple_is_min_identity(self):
        s = counting.MergeStage.empty("t", "exp", 1, 3)
        s.absorb(TuplePart("t", "exp", np.full(3, np.inf)))
        vals = np.array([2.0, 1.0, 5.0])
        s.absorb(TuplePart("t", "exp", vals))
        assert np.array_equal(s.acc, vals)


def static_graph(kind, n, rng):
    if kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "cycle":
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    else:  # random tree: node i hangs off an earlier node
        edges = [(int(rng.integers(i)), i) for i in range(1, n)]
    return DynamicGraph.from_edges(n, edges)


# two parts each stage absorbs after its own contribution, and the merged
# accumulator whatever that contribution was
INCOMING = {"geo": ([64, 1, 1], [1, 64, 64]),
            "exp": ([1e-9, np.inf, np.inf], [np.inf, 1e-9, 1e-9]),
            "ids": ([2], [4]),
            "degs": ([-1, 5, -1], [-1, -1, 7])}
MERGED = {"geo": [64, 64, 64], "exp": [1e-9, 1e-9, 1e-9], "ids": [7],
          "degs": [2, 5, 7]}


def member_stage(kind):
    """A stage holding one member's contribution: node 0 of 3 (of 8 for
    ids) with degree 2, or a seeded length-3 draw."""
    rng = np.random.default_rng(0)
    if kind == "geo":
        return counting.geo_stage("t", 1, 3, True, rng)[0]
    if kind == "exp":
        return counting.exp_stage("t", 1, 3, True, rng)
    if kind == "ids":
        return counting.ids_stage("t", 1, 8, 0, True)
    return counting.degs_stage("t", 1, 3, 0, True, 2)


class TestBroadcastValues:
    """A node learns in round r+1 only what its neighbours broadcast in
    round r, whatever the order in which nodes step."""

    def test_path_counts_only_the_2d_ball(self):
        g = static_graph("path", 8, None)
        res = counting.run_node_count(g, set(range(8)), 1, exact=True)
        assert res.estimates == [3.0, 4.0, 5.0, 5.0, 5.0, 5.0, 4.0, 3.0]

    @given(st.sampled_from(["path", "cycle", "tree"]), st.integers(3, 12),
           st.integers(1, 3), st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_exact_count_is_the_members_within_2d_hops(self, kind, n, d,
                                                       seed):
        rng = np.random.default_rng(seed)
        g = static_graph(kind, n, rng)
        members = {v for v in range(n) if rng.random() < 0.6}
        res = counting.run_node_count(g, members, d, exact=True)
        rows, cols = zip(*g.edges())
        dist = shortest_path(csr_matrix(([1] * len(rows), (rows, cols)),
                                        shape=(n, n)),
                             directed=False, unweighted=True)
        want = [float(sum(1 for v in members if dist[u, v] <= 2 * d))
                for u in range(n)]
        assert res.estimates == want

    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_emitted_part_keeps_its_values(self, kind):
        stage = member_stage(kind)
        part = stage.emit()
        sent = part.values.copy()
        for vals in INCOMING[kind]:
            stage.absorb(TuplePart("t", kind, np.array(vals, sent.dtype)))
        assert np.array_equal(part.values, sent)
        assert stage.acc.tolist() == MERGED[kind]

    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_adopted_part_keeps_its_values(self, kind):
        first = member_stage(kind).emit()
        sent = first.values.copy()
        stage = counting.MergeStage.empty("t", kind, 1, sent.size)
        stage.absorb(first)
        for vals in INCOMING[kind]:
            stage.absorb(TuplePart("t", kind, np.array(vals, sent.dtype)))
        assert np.array_equal(first.values, sent)
        assert stage.acc.tolist() == MERGED[kind]

    def test_fine_length_mismatch_raises(self):
        # fine lengths that disagree across nodes (D undersized) must fail
        # loudly, also at a node that drew nothing
        stage = counting.exp_stage("t", 1, 4, False, np.random.default_rng(0))
        with pytest.raises(ValueError):
            stage.absorb(TuplePart("t", "exp", np.ones(5)))


EULER_GAMMA = 0.5772156649015329


def closed_form_window_rate(n, delta_fail, lo, hi):
    """Exact P(lo <= coarse <= hi) for n members under the LogLog law.

    The per-coordinate max of n geometric(1/2) toss counts has CDF
    ``(1 - 2^-k)^n`` (capped at 64); the tuple's coordinates are iid, so
    the law of their sum is that pmf convolved L times, and the estimate is
    ``2**(sum/L - (gamma/ln 2 + 1/2))``.
    """
    length = math.ceil(65 * math.log(1 / delta_fail))
    cdf = (1.0 - np.exp2(-np.arange(65.0))) ** n
    cdf[-1] = 1.0
    pmf = np.diff(cdf, prepend=0.0)
    dist = np.ones(1)
    for _ in range(length):
        dist = np.convolve(dist, pmf)
    est = np.exp2(np.arange(dist.size) / length
                  - (EULER_GAMMA / math.log(2.0) + 0.5))
    return float(dist[(est >= lo) & (est <= hi)].sum())


# Rates of the coarse estimate landing in [0.8n, 1.25n], from
# closed_form_window_rate (the exact law, not a sample).  The window is
# narrow enough that no rate saturates at 1, so a change of estimator law
# shows up here: a power-of-two-valued estimate has no value inside it at
# n = 100.
COARSE_WINDOW_RATES = {
    (4, 0.1): 0.856, (4, 0.01): 0.930,
    (10, 0.1): 0.949, (10, 0.01): 0.990,
    (100, 0.1): 0.964, (100, 0.01): 0.997,
}


class TestEstimatorStatistics:
    def test_coarse_window_rates_match_oracle(self):
        rng = np.random.default_rng(42)
        for (n, df), expected in COARSE_WINDOW_RATES.items():
            lo, hi = 0.8 * n, 1.25 * n
            assert closed_form_window_rate(n, df, lo, hi) == pytest.approx(
                expected, abs=5e-4), (n, df)
            est = counting.sample_coarse_estimates(rng, n, df, 10000)
            inside = float(((est >= lo) & (est <= hi)).mean())
            assert abs(inside - expected) < 0.03, (n, df, inside)

    def test_coarse_two_approx_holds_at_power_of_two(self):
        # the advertised (2, delta) bound at n = 4, a power of two; the
        # criterion-4 acceptance test covers n = 10 and n = 100
        rng = np.random.default_rng(1)
        for df in (0.1, 0.01):
            est = counting.sample_coarse_estimates(rng, 4, df, 10000)
            inside = ((est >= 2) & (est <= 8)).mean()
            assert inside > 1 - df

    def test_coarse_upper_bound_role(self):
        # the maintenance loop only needs 2 * coarse to upper-bound the count
        rng = np.random.default_rng(5)
        for n in (4, 10, 100, 400):
            est = counting.sample_coarse_estimates(rng, n, 0.01, 4000)
            assert ((2 * est) >= n).mean() > 0.995, n

    def test_fine_relative_error(self):
        rng = np.random.default_rng(42)
        est = counting.sample_fine_estimates(rng, 50, 0.3, 1000)
        failures = float(((est < 0.7 * 50) | (est > 1.3 * 50)).mean())
        assert failures < 0.01

    def test_fine_matches_gamma_oracle(self):
        # min over n members is Exp(n) per coordinate, so the sum is
        # Gamma(l, 1/n): two-sided KS at the 1% level
        n, upper = 50, 200
        length = counting.fine_tuple_len(upper, 0.3)
        direct = length / np.random.default_rng(99).gamma(
            shape=length, scale=1.0 / n, size=1000)
        est = counting.sample_fine_estimates(
            np.random.default_rng(98), n, 0.3, 1000, upper_bound=upper)
        assert stats.ks_2samp(est, direct).pvalue > 0.01

    def test_collapsed_matches_literal(self):
        a = counting.sample_coarse_estimates(np.random.default_rng(1), 20, 0.1, 2000)
        b = counting.sample_coarse_literal(np.random.default_rng(2), 20, 0.1, 2000)
        assert stats.ks_2samp(a, b).pvalue > 0.01
        c1 = counting.sample_fine_estimates(np.random.default_rng(3), 30, 0.5,
                                            1000, upper_bound=100)
        c2 = counting.sample_fine_literal(np.random.default_rng(4), 30, 0.5,
                                          1000, upper_bound=100)
        assert stats.ks_2samp(c1, c2).pvalue > 0.01

    def test_edge_estimates_planted_clique(self):
        rng = np.random.default_rng(7)
        adj = np.zeros((50, 50), bool)
        for i in range(10):
            for j in range(i + 1, 10):
                adj[i, j] = adj[j, i] = True
        for i in range(50):
            for j in range(i + 1, 50):
                if not adj[i, j] and rng.random() < 0.1:
                    adj[i, j] = adj[j, i] = True
        true_m = int(adj.sum()) // 2
        est = counting.sample_edge_estimates(np.random.default_rng(11),
                                             int(adj.sum()), 0.2, 1000)
        ok = float(((est >= 0.8 * true_m) & (est <= 1.2 * true_m)).mean())
        assert ok >= 0.95


class TestStrictMode:
    def test_strict_equals_logical_and_small_messages(self):
        g = DynamicGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        members = {0, 2}
        logical = counting.run_node_count(g, members, 3, epsilon=1.0,
                                          delta_fail=0.5, seed=6)
        strict = counting.run_node_count(g, members, 3, epsilon=1.0,
                                         delta_fail=0.5, seed=6, strict=True)
        assert logical.estimates == strict.estimates
        assert strict.world.ledger.global_max_bits <= 64
        lg, lf = counting.coarse_tuple_len(0.5), counting.fine_tuple_len(
            2 * logical.coarse[0], 1.0)
        assert strict.rounds_used == 3 * (lg + lf)


class TestBandwidth:
    def _reference_graph(self):
        n = 64
        edges = sorted({tuple(sorted((i, (i + d) % n)))
                        for i in range(n) for d in (1, 7)})
        return DynamicGraph.from_edges(n, edges), n

    def test_coarse_stage_within_calibrated_bound(self):
        # calibrated once on this reference run and frozen: merged toss
        # tuples stay within 110 * ln(1/delta) * log2(log2 n) bits
        g, n = self._reference_graph()
        res = counting.run_node_count(g, set(range(n)), 8, delta_fail=0.01,
                                      epsilon=0.5, seed=1)
        bound = int(110 * math.log(1 / 0.01) * math.log2(math.log2(n)))
        rows = assert_bandwidth(res.world.ledger, {"cnt.c": bound})
        row = next(r for r in rows if r.tag == "cnt.c")
        assert row.ok, (row.max_bits, bound)

    def test_tuple_parts_metered_per_kind(self):
        # n = 8 nodes: 3 bits per id
        parts = [
            (TuplePart("t", "geo", np.array([1, 2, 3, 64], np.uint8)),
             1 + 2 + 2 + 7),
            (TuplePart("t", "exp", np.ones(5)), 64 * 5),
            (TuplePart("t", "ids", np.array([0b1011], np.uint64), 3), 3 * 3),
            (TuplePart("t", "degs", np.array([2, -1, 0, 5], np.int32), 3),
             3 * 2 * 3),
            (counting.CoordPart("t", "geo", 0, 0.0), 1),
            (counting.CoordPart("t", "geo", 1, 5.0), 3),
            (counting.CoordPart("t", "exp", 2, 0.25), 64),
        ]
        for part, bits in parts:
            assert part.bit_size() == bits, part

    def test_fine_full_tuple_mode_exceeds_log_bound(self):
        # full-tuple broadcasts provably blow an O(log n) budget; the ledger
        # must record the violation rather than dropping it
        g, n = self._reference_graph()
        res = counting.run_node_count(g, set(range(n)), 8, delta_fail=0.01,
                                      epsilon=0.5, seed=1)
        bound = 64 * math.ceil(math.log2(n))
        rows = assert_bandwidth(res.world.ledger, {"cnt.f": bound})
        row = next(r for r in rows if r.tag == "cnt.f")
        assert not row.ok
        assert row.max_bits > bound


def test_estimator_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    counting.write_estimator_trace(str(path), [(0, 10, 9.5, 300, 4),
                                               (1, 10, 11.25, 300, 4)])
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,true_value,estimate,tuple_len,rounds"
    assert lines[1] == "0,10,9.5,300,4"
