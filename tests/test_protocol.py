import numpy as np
import pytest

from densetrack.errors import UnknownSnapshot
from densetrack.graph import DynamicGraph
from densetrack.netsim import World
from densetrack.oracle import peel_reference
from densetrack.protocol import (LevelRecord, ProtocolNode, level_round_cost,
                                 membership_query, params_for, query_argmax,
                                 threshold_value)


def run_passes(g, epsilon, diameter, passes=1, exact=True, seed=0, k=0,
               **overrides):
    params = params_for(g.node_count, epsilon, diameter, k=k,
                        exact_counting=exact, **overrides)
    handlers = [ProtocolNode(i, g.node_count, params)
                for i in range(g.node_count)]
    world = World(g, handlers, seed=seed)
    guard = 40000
    while handlers[0].pass_index < passes:
        world.run_round()
        guard -= 1
        assert guard > 0, "run did not terminate"
    return world, handlers, params


def run_query(world, handlers, k, max_rounds=20000):
    for h in handlers:
        h.query_k = k
    before = len(handlers[0].outcomes)
    while len(handlers[0].outcomes) == before:
        world.run_round()
        max_rounds -= 1
        assert max_rounds > 0
    outs = [h.outcomes[-1] for h in handlers]
    answer = sorted(h.node_id for h, o in zip(handlers, outs) if o.in_answer)
    return answer, outs


def level_sets(handlers):
    fam = handlers[0].family
    return [frozenset(h.node_id for h in handlers if h.family.flags[j])
            for j in range(len(fam.records))]


class TestMaintain:
    def test_triangle_plus_pendant_drops_pendant(self):
        g = DynamicGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        _, handlers, params = run_passes(g, 0.24, 2)  # delta = 0.01
        fam = handlers[0].family
        assert [r.node_est for r in fam.records] == [4.0, 3.0]
        assert level_sets(handlers) == [frozenset({0, 1, 2, 3}),
                                        frozenset({0, 1, 2})]
        assert fam.closed_by == "fixed-point"

    def test_star_is_a_fixed_point(self):
        g = DynamicGraph.from_edges(6, [(0, i) for i in range(1, 6)])
        _, handlers, _ = run_passes(g, 0.24, 2)
        fam = handlers[0].family
        assert len(fam.records) == 1
        assert level_sets(handlers) == [frozenset(range(6))]
        assert fam.closed_by == "fixed-point"

    def test_empty_level_restarts_without_recount(self):
        # factor > 2 can drain a level completely; the follow-up pass reuses
        # the retained level-0 node count and opens with edge counting
        g = DynamicGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        _, hs, _ = run_passes(g, 0.24, 1, passes=1, threshold_factor=2.5)
        assert hs[0].family.closed_by == "empty"
        assert [r.nodes_start for r in hs[0].family.records] == [0]
        # the published family is the latest; run further to observe pass 2
        _, handlers, _ = run_passes(g, 0.24, 1, passes=2,
                                    threshold_factor=2.5)
        fam2 = handlers[0].family
        assert fam2.closed_by == "empty"
        assert fam2.records[0].nodes_start is None  # n_0 not recounted
        assert fam2.records[0].node_est == 3.0

    def test_level_cap_closes_pass(self):
        g = DynamicGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4),
                                        (0, 4), (0, 2)])
        _, handlers, _ = run_passes(g, 0.24, 2, p_cap=1)
        fam = handlers[0].family
        assert fam.closed_by == "cap"
        assert len(fam.records) == 1
        assert fam.records[0].threshold_round is None

    def test_nesting_and_agreement_random_graphs(self):
        rng = np.random.default_rng(0)
        for trial in range(6):
            n = int(rng.integers(8, 18))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.35]
            g = DynamicGraph.from_edges(n, edges + [(i, (i + 1) % n)
                                                    for i in range(n)
                                                    if (i, (i + 1) % n) not in edges
                                                    and (min(i, (i + 1) % n),
                                                         max(i, (i + 1) % n)) not in edges])
            g = DynamicGraph.from_edges(n, sorted(g.snapshot()))
            _, handlers, _ = run_passes(g, 0.5, 4, seed=trial)
            fam0 = handlers[0].family
            for h in handlers:
                assert h.family.records == fam0.records  # scalar agreement
            sets = level_sets(handlers)
            for a, b in zip(sets, sets[1:]):
                assert b <= a  # nested flags

    def test_matches_centralized_peel(self):
        rng = np.random.default_rng(1)
        for trial in range(8):
            n = int(rng.integers(6, 16))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            if not edges:
                continue
            g = DynamicGraph.from_edges(n, edges)
            from densetrack.graph import static_diameter
            d = static_diameter(g)
            if d == float("inf"):
                continue
            _, handlers, params = run_passes(g, 0.5, max(1, int(d)),
                                             seed=trial)
            ref = peel_reference(g, params.factor, p_cap=params.p_cap)
            assert level_sets(handlers) == list(ref.levels)
            assert handlers[0].family.closed_by == ref.closed_by


class TestRoundCost:
    def test_constant(self):
        assert level_round_cost(3) == 13
        assert level_round_cost(1) == 5

    def test_pass_length_within_budget(self):
        g = DynamicGraph.from_edges(10, [(i, j) for i in range(5)
                                         for j in range(i + 1, 5)]
                                    + [(4 + i, 5 + i) for i in range(5)]
                                    + [(0, 9)])
        world, handlers, params = run_passes(g, 0.5, 3, passes=3)
        fam = handlers[0].family
        length = fam.end_round - fam.start_round + 1
        assert length <= params.p_cap * level_round_cost(3)

    def test_counting_spans_exact(self):
        g = DynamicGraph.from_edges(6, [(i, j) for i in range(6)
                                        for j in range(i + 1, 6)])
        _, handlers, params = run_passes(g, 0.5, 2, passes=2)
        for rec in handlers[0].family.records:
            if rec.nodes_start is not None:
                assert rec.edges_start - rec.nodes_start == 2 * params.diameter
            if rec.threshold_round is not None:
                assert rec.threshold_round - rec.edges_start == 2 * params.diameter


def rec(j, n, m):
    return LevelRecord(j, float(n), float(m), m / n, None, 0, None)


class TestQueryArgmax:
    def test_k_five(self):
        records = (rec(0, 4, 4), rec(1, 3, 3))
        assert query_argmax(records, 5) == 0  # 4/5 beats 3/5

    def test_k_zero_uses_plain_ratio(self):
        records = (rec(0, 4, 6), rec(1, 3, 5))
        assert query_argmax(records, 0) == 1  # 5/3 beats 3/2

    def test_tie_takes_smallest_index(self):
        records = (rec(0, 4, 4), rec(1, 3, 3))
        assert query_argmax(records, 0) == 0  # both ratios 1.0


class TestQueries:
    def test_k_zero_immediate(self):
        g = DynamicGraph.from_edges(5, [(i, j) for i in range(4)
                                        for j in range(i + 1, 4)] + [(3, 4)])
        world, handlers, _ = run_passes(g, 0.96, 2, passes=1)
        answer, outs = run_query(world, handlers, 0)
        assert answer == [0, 1, 2, 3]
        assert outs[0].padded is False and outs[0].attempts == 0

    def test_padding_delta_arithmetic(self):
        # delta = 0.01 (epsilon 0.24): target = (1+0.01)*100 - 50 = 51
        params = params_for(200, 0.24, 2, k=100)
        assert (1 + params.delta) * 100 - 50 == pytest.approx(51.0)

    def test_no_padding_when_level_big_enough(self):
        g = DynamicGraph.from_edges(5, [(i, j) for i in range(5)
                                        for j in range(i + 1, 5)])
        world, handlers, _ = run_passes(g, 0.96, 1, passes=1, k=3)
        answer, outs = run_query(world, handlers, 3)
        assert len(answer) == 5 and outs[0].padded is False

    def test_padding_loop_caps_loudly_and_reaches_k(self):
        # K6 core plus four pendants; k=7 forces the padding branch with a
        # sub-integer acceptance window, so the cap fires and the closest
        # attempt is returned with the warning flag
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        edges += [(0, v) for v in (6, 7, 8, 9)]
        g = DynamicGraph.from_edges(10, edges)
        world, handlers, params = run_passes(g, 0.96, 2, passes=1, k=7)
        answer, outs = run_query(world, handlers, 7)
        out = outs[0]
        assert out.padded and out.cap_exceeded
        assert out.attempts == params.pad_cap
        assert len(answer) >= 7
        assert out.completed_round - out.fired_round == \
            out.attempts * 2 * params.diameter
        assert len({(o.attempts, o.cap_exceeded) for o in outs}) == 1

    def test_padding_acceptance_reference_window(self):
        # exact counting, n=200, k=100, level size 50, delta=0.01: the only
        # acceptable enrolled-set size is 52, and the cap bounds attempts
        delta = 0.01
        target = (1 + delta) * 100 - 50
        lo, hi = (1 + delta) * target, (1 + 2 * delta) * target
        assert (lo, hi) == pytest.approx((51.51, 52.02))
        cap = int(np.ceil(8 * np.log(200)))
        rng = np.random.default_rng(0)
        accepted_sizes = []
        attempts_used = []
        for _ in range(500):
            for attempt in range(1, cap + 1):
                size = rng.binomial(200 - 50, target / 200)
                if lo <= size <= hi:
                    accepted_sizes.append(size)
                    break
            attempts_used.append(attempt)
        assert all(s == 52 for s in accepted_sizes)
        assert max(attempts_used) <= cap

    def test_membership_query(self):
        g = DynamicGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        _, handlers, _ = run_passes(g, 0.24, 2)
        snap = handlers[0].family.pass_index
        flags = membership_query(handlers[3], snap)
        assert flags[0] is True and flags[1] is False  # pendant drops
        flags0 = membership_query(handlers[0], snap)
        assert flags0[1] is True
        with pytest.raises(UnknownSnapshot):
            membership_query(handlers[0], snap + 5)

    def test_query_before_first_pass(self):
        g = DynamicGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        params = params_for(4, 0.5, 3, exact_counting=True)
        handlers = [ProtocolNode(i, 4, params) for i in range(4)]
        world = World(g, handlers, seed=0)
        world.run_round()
        for h in handlers:
            h.query_k = 0
        world.run_round()
        assert all(h.outcomes and h.outcomes[0].no_family for h in handlers)


class TestLocality:
    def test_outbox_ignores_unrelated_world_state(self):
        # the same four nodes, alone vs alongside a disconnected component:
        # their broadcast streams must be bit-identical
        core_edges = [(0, 1), (1, 2), (2, 3), (0, 2)]
        params = params_for(4, 0.5, 2)  # shared explicitly by both worlds

        def trace(node_count, extra_edges):
            g = DynamicGraph.from_edges(node_count, core_edges + extra_edges)
            handlers = [ProtocolNode(i, node_count, params)
                        for i in range(node_count)]
            world = World(g, handlers, seed=3)
            seen = {i: [] for i in range(4)}
            for _ in range(40):
                world.run_round()
                for i in range(4):
                    msgs = [m for m in world._inboxes[i]]
                    seen[i].append(tuple(
                        (m.sender, m.payload_hash()) for m in msgs))
            return seen

        alone = trace(4, [])
        crowded = trace(7, [(4, 5), (5, 6)])
        assert alone == crowded


def test_threshold_value_is_shared_binary64():
    assert threshold_value(4 / 3, 1.01) == 1.01 * (4 / 3)
