import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from densetrack import counting
from densetrack.adversary import ScriptedAdversary
from densetrack.graph import DynamicGraph
from densetrack.counting import TuplePart
from support import (count_window, measure_dynamic_diameter, member_degrees,
                     round_start_edges, run_script, sample_edge_estimates)


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
        coarse = counting.finalize_coarse_rows(st_.acc)
        assert coarse == pytest.approx(
            2.0 ** (1.0 - (EULER_GAMMA / math.log(2.0) + 0.5)), rel=1e-12)
        assert 2 * coarse >= 1

    def test_single_member_unit_exponentials(self):
        rng = StubRng(uniform_value=1.0 - math.exp(-1.0))
        stage = counting.exp_stage("t", 1, 8, True, rng)
        assert counting.finalize_fine_rows(stage.acc) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("copies", [1, 3])
    @pytest.mark.parametrize("size", [7, (4, 5)])
    def test_exponential_draws_equal_the_formula(self, copies, size):
        # the in-place draw gives the bits of -log1p(-u) / copies
        got = counting.exponential_draws(np.random.default_rng(11), size,
                                         copies)
        u = np.random.default_rng(11).random(size=size)
        want = -np.log1p(-u) / copies
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_toss_cap_truncation_recorded(self):
        vals, truncated = counting.geometric_tosses(
            StubRng(geometric_value=80), (3, 4))
        assert truncated == 12
        assert vals.max() == counting.GEO_TOSS_CAP


class ListRng:
    """Returns the given uniforms, in order, whatever size is asked for."""

    def __init__(self, values):
        self.values = np.array(values, dtype=np.float64)

    def random(self, size=None):
        return self.values.copy()


class TestKernelReferences:
    """Each rewritten kernel gives the bits of the formula it replaced."""

    @pytest.mark.parametrize("shape", [(7,), (65,), (6, 9), (3, 1)])
    def test_finalize_coarse_rows_is_the_mean_formula(self, shape):
        rng = np.random.default_rng(5)
        v = np.minimum(rng.geometric(0.5, size=shape), 64).astype(np.uint8)
        for rows in ([], [0], [-1]) if v.ndim == 2 else ([],):
            v[rows] = 0  # all-zero rows are the identity
        zero = np.zeros(shape[-1], np.uint8)
        for values in (v, zero) if v.ndim == 1 else (v,):
            want = np.where(values.any(-1),
                            np.exp2(values.mean(-1) - counting.COARSE_BIAS),
                            0.0)
            got = counting.finalize_coarse_rows(values)
            assert np.shape(got) == want.shape
            assert np.asarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("c", [2, 3, 17, 130, 5000])
    def test_max_toss_cdf_is_the_power_formula(self, c):
        ks = np.arange(1, counting.GEO_TOSS_CAP + 1, dtype=np.float64)
        cdf = counting._max_toss_cdf(c)
        assert cdf.tobytes() == np.power(1 - np.exp2(-ks), c).tobytes()
        assert not cdf.flags.writeable
        assert counting._max_toss_cdf(c) is cdf
        with pytest.raises(ValueError):
            cdf[0] = 0.0

    @pytest.mark.parametrize("copies", [1, 3])
    def test_exponential_draws_clamp_zero_as_copyto_did(self, copies):
        # u == 0 gives -log1p(-0) == 0, the only draw below 2^-53
        uniforms = [0.0, 2.0 ** -53, 0.25, 0.5, 1.0 - 2.0 ** -53]
        got = counting.exponential_draws(ListRng(uniforms), 5, copies)
        want = -np.log1p(-np.array(uniforms))
        np.copyto(want, 1e-300, where=(want == 0.0))
        if copies != 1:
            want /= copies
        assert got.tobytes() == want.tobytes()
        assert got[0] == 1e-300 / copies


class TestEmptySubset:
    def test_nodes_empty_everywhere(self):
        g = complete_graph(5)
        res = count_window(g, set(), 1, epsilon=0.5)
        assert res.estimates == [0.0] * 5

    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_identity_finalizes_to_zero(self, kind):
        stage = counting.MergeStage.empty("t", kind, 1, 5)
        assert counting.KINDS[kind].finalize(stage.acc) == 0.0

    def test_edges_edgeless_subset(self):
        g = DynamicGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        res = count_window(g, {0, 3}, 3, degrees=member_degrees(g, {0, 3}),
                           epsilon=0.5, seed=2)
        assert res.estimates == [0.0] * 4


class TestExactMode:
    def test_nodes_exact(self):
        g = complete_graph(6)
        res = count_window(g, {0, 2, 4}, 1, exact=True)
        assert res.estimates == [3.0] * 6

    def test_single_edge(self):
        g = DynamicGraph.from_edges(2, [(0, 1)])
        res = count_window(g, {0, 1}, 1, degrees=member_degrees(g, {0, 1}),
                           exact=True)
        assert res.estimates == [1.0, 1.0]

    def test_triangle_edges(self):
        g = complete_graph(3)
        res = count_window(g, {0, 1, 2}, 1,
                           degrees=member_degrees(g, {0, 1, 2}), exact=True)
        assert res.estimates == [3.0] * 3

    def test_exact_vs_estimate_k10(self):
        g = complete_graph(10)
        members = set(range(10))
        degrees = member_degrees(g, members)
        exact = count_window(g, members, 1, degrees=degrees, exact=True)
        est = count_window(g, members, 1, degrees=degrees, epsilon=0.1,
                           seed=4)
        assert exact.estimates[0] == 45.0
        assert abs(est.estimates[0] - 45.0) <= 0.1 * 45.0


class TestScheduleAndAgreement:
    def test_two_stage_window_is_exactly_2d(self):
        g = complete_graph(8)
        members = set(range(8))
        for d in (1, 2, 3):
            for degrees in (None, member_degrees(g, members)):
                res = count_window(g, members, d, degrees=degrees, epsilon=0.5)
                assert res.rounds == 2 * d

    def test_agreement_static(self):
        g = DynamicGraph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4),
                                        (4, 5), (5, 6), (0, 6)])
        res = count_window(g, {1, 3, 5}, 4, epsilon=0.5, seed=8)
        assert len(set(res.estimates)) == 1

    def test_agreement_under_churn(self):
        # protected star keeps the dynamic diameter at 2 while a fringe edge
        # flaps every round
        edges = [(0, i) for i in range(1, 6)] + [(1, 2)]
        g = DynamicGraph.from_edges(6, edges, churn_rate=1)
        ops = [{"round": r, "op": ("remove", "add")[r % 2], "u": 1, "v": 2}
               for r in range(30)]
        adv = ScriptedAdversary.load(ops, g, rate=1)
        res = count_window(g, {1, 3, 5}, 2, epsilon=0.5, seed=3,
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
        res = count_window(g, set(range(8)), 1, exact=True)
        assert res.estimates == [3.0, 4.0, 5.0, 5.0, 5.0, 5.0, 4.0, 3.0]

    @given(st.sampled_from(["path", "cycle", "tree"]), st.integers(3, 12),
           st.integers(1, 3), st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_exact_count_is_the_members_within_2d_hops(self, kind, n, d,
                                                       seed):
        rng = np.random.default_rng(seed)
        g = static_graph(kind, n, rng)
        members = {v for v in range(n) if rng.random() < 0.6}
        res = count_window(g, members, d, exact=True)
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


def literal_estimates(draw, merge, finalize, members, length, trials):
    """Estimates from drawing every member's tuple, merging and finalizing:
    the law the collapsed samplers of counting reach in closed form.
    ``draw(shape)`` returns iid coordinates; batches stay near 8 M draws."""
    batch = max(1, (1 << 23) // (members * length))
    return np.concatenate([
        finalize(merge(draw((min(batch, trials - done), members, length)),
                       axis=1))
        for done in range(0, trials, batch)])


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
        rng = np.random.default_rng(2)
        b = literal_estimates(
            lambda shape: counting.geometric_tosses(rng, shape)[0], np.max,
            counting.finalize_coarse_rows, 20, counting.coarse_tuple_len(0.1),
            2000)
        assert stats.ks_2samp(a, b).pvalue > 0.01
        c1 = counting.sample_fine_estimates(np.random.default_rng(3), 30, 0.5,
                                            1000, upper_bound=100)
        rng = np.random.default_rng(4)
        c2 = literal_estimates(
            lambda shape: counting.exponential_draws(rng, shape), np.min,
            counting.finalize_fine_rows, 30, counting.fine_tuple_len(100, 0.5),
            1000)
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
        est = sample_edge_estimates(np.random.default_rng(11),
                                    int(adj.sum()), 0.2, 1000)
        ok = float(((est >= 0.8 * true_m) & (est <= 1.2 * true_m)).mean())
        assert ok >= 0.95


class TestStrictMode:
    def test_strict_equals_logical_and_small_messages(self):
        g = DynamicGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        members = {0, 2}
        logical = count_window(g, members, 3, epsilon=1.0, delta_fail=0.5,
                               seed=6)
        strict = count_window(g, members, 3, epsilon=1.0, delta_fail=0.5,
                              seed=6, strict=True)
        assert logical.estimates == strict.estimates
        assert strict.world.ledger.global_max_bits <= 64
        lg, lf = counting.coarse_tuple_len(0.5), counting.fine_tuple_len(
            2 * logical.coarse[0], 1.0)
        assert strict.rounds == 3 * (lg + lf)


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
        res = count_window(g, set(range(n)), 8, delta_fail=0.01, epsilon=0.5,
                           seed=1)
        bound = int(110 * math.log(1 / 0.01) * math.log2(math.log2(n)))
        max_bits = res.world.ledger.per_tag["cnt.c"].max_bits
        assert max_bits <= bound, (max_bits, bound)

    def test_tuple_parts_metered_per_kind(self):
        # n = 8 nodes: 3 bits per id
        parts = [
            (TuplePart("t", "geo", np.array([1, 2, 3, 64], np.uint8)),
             1 + 2 + 2 + 7),
            (TuplePart("t", "exp", np.ones(5)), 64 * 5),
            (TuplePart("t", "ids", np.array([0b1011], np.uint64), 3), 3 * 3),
            (TuplePart("t", "degs", np.array([2, -1, 0, 5], np.int32), 3),
             3 * 2 * 3),
            (counting.CoordPart("t", "geo", 0, np.array([0], np.uint8)), 1),
            (counting.CoordPart("t", "geo", 1, np.array([5], np.uint8)), 3),
            (counting.CoordPart("t", "exp", 2, np.array([0.25])), 64),
        ]
        for part, bits in parts:
            assert part.row_bits([part.values]).tolist() == [bits], part

    def test_fine_full_tuple_mode_exceeds_log_bound(self):
        # full-tuple broadcasts provably blow an O(log n) budget; the ledger
        # must record the violation rather than dropping it
        g, n = self._reference_graph()
        res = count_window(g, set(range(n)), 8, delta_fail=0.01, epsilon=0.5,
                           seed=1)
        bound = 64 * math.ceil(math.log2(n))
        assert res.world.ledger.per_tag["cnt.f"].max_bits > bound


CHURN_RATE = 2
TRACE_ROUNDS = 12


@st.composite
def churn_scripts(draw):
    """A graph on 2 to 6 nodes and a legal script toggling up to
    ``CHURN_RATE`` node pairs in each of ``TRACE_ROUNDS`` rounds."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = set(draw(st.lists(st.sampled_from(pairs), unique=True)))
    initial = sorted(present)
    script = []
    for r in range(TRACE_ROUNDS):
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True,
                                  max_size=CHURN_RATE)):
            op = "remove" if (u, v) in present else "add"
            present ^= {(u, v)}
            script.append({"round": r, "op": op, "u": u, "v": v})
    return n, initial, script


def scripted_graph(n, initial, script):
    g = DynamicGraph.from_edges(n, initial, churn_rate=CHURN_RATE)
    return g, ScriptedAdversary.load(script, g, rate=CHURN_RATE)


@given(churn_scripts(), st.data())
@settings(max_examples=60, deadline=None)
def test_exact_count_covers_the_measured_dynamic_diameter(spec, data):
    # the trace oracle and the engine agree: when D bounds the dynamic
    # diameter of the round-start edge sets, every member reaches every
    # node within the 2 * ceil(D / 2) >= D rounds of an exact count
    n, initial, script = spec
    trace = round_start_edges(*scripted_graph(n, initial, script),
                              TRACE_ROUNDS)
    d = measure_dynamic_diameter(trace, n)
    assume(d != math.inf)  # then 2 * ceil(D / 2) <= TRACE_ROUNDS
    members = data.draw(st.sets(st.integers(0, n - 1)))
    g, adv = scripted_graph(n, initial, script)
    res = count_window(g, members, math.ceil(d / 2), exact=True,
                       adversary=adv)
    assert res.estimates == [float(len(members))] * n


def test_estimator_trace_csv(tmp_path):
    # one trace per (n, eps) cell: a row per trial holding n, the estimate
    # drawn under the script's seed (written exactly), the fine tuple
    # length and 0 rounds
    proc = run_script("estimator_error_sweep.py", "--trials", 50,
                      "--seed", 3, "--out", tmp_path, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    cells = [(n, eps) for n in (10, 50, 200, 1000) for eps in (0.1, 0.3, 1.0)]
    assert len(list(tmp_path.glob("*.csv"))) == len(cells)
    for n, eps in cells:
        rng = np.random.default_rng((3, n))
        est = counting.sample_fine_estimates(rng, n, eps, 50).tolist()
        length = counting.fine_tuple_len(2.0 * n, eps)
        rows = [",".join(map(str, (i, n, e, length, 0)))
                for i, e in enumerate(est)]
        lines = (tmp_path / f"fine-n{n}-eps{eps}.csv").read_text().splitlines()
        assert lines == ["trial,true_value,estimate,tuple_len,rounds", *rows]
