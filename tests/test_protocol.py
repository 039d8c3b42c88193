import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densetrack.graph import DynamicGraph, static_diameter
from densetrack.harness import run_scenario
from densetrack.netsim import World
from densetrack.oracle import peel_reference
from densetrack.protocol import (LevelRecord, ProtocolNode, level_round_cost,
                                 padding_window, params_for, query_argmax,
                                 threshold_value)


def run_passes(g, epsilon, diameter, passes=1, exact=True, seed=0,
               **overrides):
    params = params_for(g.node_count, epsilon, diameter,
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
    before = handlers[0].answered
    while handlers[0].answered == before:
        world.run_round()
        max_rounds -= 1
        assert max_rounds > 0
    outs = [h.outcome for h in handlers]
    answer = sorted(h.node_id for h, o in zip(handlers, outs) if o.in_answer)
    return answer, outs


def k6_pendants():
    """A K6 core with four pendants on node 0."""
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    return DynamicGraph.from_edges(10, edges + [(0, v) for v in (6, 7, 8, 9)])


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
        # K4 plus a pendant: the pendant drops at level 0, so level 1 is no
        # fixed point and the least legal cap, 2, closes the pass
        g = DynamicGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2),
                                        (1, 3), (2, 3), (0, 4)])
        _, handlers, _ = run_passes(g, 0.24, 2, p_cap=2)
        fam = handlers[0].family
        assert fam.closed_by == "cap"
        assert len(fam.records) == 2
        assert fam.records[-1].threshold_round is None

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
            g = DynamicGraph.from_edges(n, g.edges())
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
        params = params_for(200, 0.24, 2)
        assert (1 + params.delta) * 100 - 50 == pytest.approx(51.0)

    def test_no_padding_when_level_big_enough(self):
        g = DynamicGraph.from_edges(5, [(i, j) for i in range(5)
                                        for j in range(i + 1, 5)])
        world, handlers, _ = run_passes(g, 0.96, 1, passes=1)
        answer, outs = run_query(world, handlers, 3)
        assert len(answer) == 5 and outs[0].padded is False

    def test_padding_loop_caps_loudly_and_reaches_k(self):
        # K6 core plus four pendants.  k=10 pads level 0, all ten nodes,
        # whose window starts at 1 with no non-member left to enroll, so
        # the cap fires and the closest attempt is returned with the
        # warning flag
        g = k6_pendants()
        world, handlers, params = run_passes(g, 0.96, 2, passes=1)
        answer, outs = run_query(world, handlers, 10)
        out = outs[0]
        assert out.padded and out.cap_exceeded
        assert out.attempts == params.pad_cap
        assert len(answer) >= 10
        assert out.completed_round - out.fired_round == \
            out.attempts * 2 * params.diameter
        assert len({(o.attempts, o.cap_exceeded) for o in outs}) == 1
        # k=7 pads the K6, and its window [2, 2] holds an integer
        answer, outs = run_query(world, handlers, 7)
        out = outs[0]
        assert out.padded and out.accepted_attempt is not None
        assert not out.cap_exceeded and len(answer) >= 7

    @pytest.mark.parametrize("exact", [True, False],
                             ids=["exact", "estimator"])
    def test_no_non_member_to_enroll_caps_without_panic(self, exact):
        # k = n pads the whole graph, so n0 - node_est is 0: every
        # non-member enrolls, none exists, and no attempt can accept
        g = k6_pendants()
        world, handlers, params = run_passes(g, 0.96, 2, passes=1,
                                             exact=exact)
        answer, outs = run_query(world, handlers, 10)
        assert outs[0].chosen == 0
        assert all(o.padded and o.cap_exceeded and
                   o.attempts == params.pad_cap for o in outs)
        assert answer == list(range(10))

    def test_padding_acceptance_reference_window(self):
        # exact counting, n=200, k=100, level size 50, delta=0.01: the only
        # acceptable enrolled-set size is 52, and the cap bounds attempts
        lo, hi, head_p = padding_window(100, 50.0, 200.0, 0.01)
        assert (lo, hi) == (52, 52)
        assert head_p == pytest.approx(52 / 150)
        cap = int(np.ceil(8 * np.log(200)))
        rng = np.random.default_rng(0)
        accepted_sizes = []
        attempts_used = []
        for _ in range(500):
            for attempt in range(1, cap + 1):
                size = rng.binomial(200 - 50, head_p)
                if lo <= size <= hi:
                    accepted_sizes.append(size)
                    break
            attempts_used.append(attempt)
        assert all(s == 52 for s in accepted_sizes)
        assert max(attempts_used) <= cap

    @pytest.mark.parametrize("target", [0.01, 0.3, 0.756, 0.99, 1.0, 1.28,
                                        2.5, 23.9, 24.0, 51.0, 120.7])
    @pytest.mark.parametrize("delta", [1 / 24, 0.04, 0.01])
    def test_padding_window_holds_an_integer(self, target, delta):
        k = 80
        node_est = (1 + delta) * k - target
        target = (1 + delta) * k - node_est  # as padding_window rounds it
        for n0 in (node_est + 1.0, node_est + 40.0, 130.0, 1000.0):
            lo, hi, head_p = padding_window(k, node_est, n0, delta)
            assert type(lo) is int and type(hi) is int and lo <= hi
            assert lo >= (1 + delta) * target and lo >= 1
            assert 0.0 <= head_p <= 1.0
        # no non-member estimated: every non-member enrolls
        for n0 in (node_est, node_est - 2.0):
            assert padding_window(k, node_est, n0, delta)[2] == 1.0

    def test_membership_query(self):
        g = DynamicGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        _, handlers, _ = run_passes(g, 0.24, 2)
        # a node reads its membership of level j from its own flags of the
        # current family, with no message
        fam3, fam0 = handlers[3].family, handlers[0].family
        assert [rec.j for rec in fam3.records] == list(range(len(fam3.flags)))
        assert fam3.flags[0] is True and fam3.flags[1] is False  # pendant drops
        assert fam0.flags[1] is True

    def test_query_before_first_pass(self):
        g = DynamicGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        params = params_for(4, 0.5, 3, exact_counting=True)
        handlers = [ProtocolNode(i, 4, params) for i in range(4)]
        world = World(g, handlers, seed=0)
        world.run_round()
        for h in handlers:
            h.query_k = 0
        world.run_round()
        assert all(h.answered == 1 and h.outcome.no_family for h in handlers)


class TestLocality:
    def test_outbox_ignores_unrelated_world_state(self):
        # the same four nodes, alone vs alongside a disconnected component:
        # their broadcast streams must be bit-identical
        core_edges = [(0, 1), (1, 2), (2, 3), (0, 2)]
        params = params_for(4, 0.5, 2)  # shared explicitly by both worlds

        def trace(node_count, extra_edges):
            g = DynamicGraph.from_edges(node_count, core_edges + extra_edges)
            seen = {i: [] for i in range(4)}

            class Heard(ProtocolNode):
                # what a core node hears, read while it steps: a folded
                # part lives only that long
                def step(self, ctx):
                    if self.node_id in seen:
                        seen[self.node_id].append(tuple(
                            (p.tag, p.canonical_bytes()) for p in ctx.inbox))
                    return super().step(ctx)

            handlers = [Heard(i, node_count, params)
                        for i in range(node_count)]
            world = World(g, handlers, seed=3)
            world.run(40)
            return seen

        alone = trace(4, [])
        crowded = trace(7, [(4, 5), (5, 6)])
        assert all(any(heard) for heard in alone.values())
        assert alone == crowded


def test_threshold_value_is_shared_binary64():
    assert threshold_value(4 / 3, 1.01) == 1.01 * (4 / 3)


def induced_degree(edges, u, members):
    return sum(1 for a, b in edges
               if (a == u and b in members) or (b == u and a in members))


def check_family_against_truth(records, flags, closed_by, graphs, factor):
    """Replay one exact-mode pass on the round-start edge sets it ran on:
    every level's counts are the true ones, and its survivors are the peel
    of its members on the threshold round's graph."""
    n = len(flags)
    for j, rec in enumerate(records):
        members = {u for u in range(n) if flags[u][j]}
        assert rec.node_est == len(members), (j, rec)
        # degrees are read where the membership marker travels, one round
        # before the edge count; the reused level 0 reads them at its start
        t = rec.edges_start - (rec.nodes_start is not None)
        true_edges = sum(1 for a, b in graphs[t]
                         if a in members and b in members)
        assert rec.edge_est == true_edges, (j, rec)
        if rec.threshold_round is None:
            continue  # closed by the level cap
        thr = threshold_value(rec.ratio, factor)
        edges = graphs[rec.threshold_round]
        survivors = {u for u in members
                     if induced_degree(edges, u, members) >= thr}
        if j + 1 < len(records):
            want = {u for u in range(n) if flags[u][j + 1]}
        else:
            want = set() if closed_by == "empty" else members
        assert survivors == want, (j, rec)


@pytest.mark.parametrize("n, clique, kind, rate, seed", [
    (8, 5, "random-churn", 1, 0),
    (12, 7, "targeted-attack-on-dense-core", 2, 1),
    (15, 9, "random-churn", 3, 2),
    (18, 10, "targeted-attack-on-dense-core", 1, 3),
    (21, 12, "random-churn", 2, 4),
    (24, 13, "targeted-attack-on-dense-core", 3, 5),
    (27, 15, "random-churn", 1, 6),
    (30, 16, "targeted-attack-on-dense-core", 2, 7),
    (33, 18, "random-churn", 3, 8),
    (35, 20, "targeted-attack-on-dense-core", 3, 9),
])
def test_exact_levels_equal_the_truth_under_churn(monkeypatch, n, clique,
                                                 kind, rate, seed):
    graphs = []    # edge set of each round, as the round starts
    families = {}  # pass index -> (records, each node's flags, closed_by)
    run_round = World.run_round

    def recording_round(world):
        graphs.append(frozenset(world.graph.edges()))
        run_round(world)
        fam = world.handlers[0].family
        if fam is not None and fam.pass_index not in families:
            families[fam.pass_index] = (
                fam.records, [h.family.flags for h in world.handlers],
                fam.closed_by)

    monkeypatch.setattr(World, "run_round", recording_round)
    conf = {"seed": seed,
            "graph": {"kind": "planted-dense", "n": n, "clique": clique,
                      "noise_p": 0.1, "hub_star": True},
            "adversary": {"kind": kind, "rate": rate, "protect": "backbone"},
            "protocol": {"epsilon": 1.0, "diameter": 2,
                         "exact_counting": True},
            "duration": {"passes": 4}, "queries": None, "report": {}}
    report = run_scenario(conf)
    assert sorted(families) == [0, 1, 2, 3]
    assert report.rounds_run == len(graphs)
    for records, flags, closed_by in families.values():
        check_family_against_truth(records, flags, closed_by, graphs,
                                   report.params.factor)


# K6, a 5-cycle hung off node 0 and a pendant on node 3: two exact levels
SEED_FREE_EDGES = ([(i, j) for i in range(6) for j in range(i + 1, 6)]
                   + [(0, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 6),
                      (3, 11)])


@given(st.lists(st.integers(0, 2 ** 32 - 1), min_size=2, max_size=2,
                unique=True))
@settings(max_examples=15, deadline=None)
def test_unpadded_exact_runs_do_not_depend_on_the_seed(seeds):
    # exact counting floods id and degree unions, and a k = 0 query never
    # pads, so no step reads a node's RNG: on one static graph every seed
    # gives the same levels, answers and ledger
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "graph.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in SEED_FREE_EDGES))
        reports = [run_scenario({
            "seed": seed, "graph": {"kind": "edge-list", "path": str(path)},
            "adversary": None,
            "protocol": {"epsilon": 0.5, "diameter": "auto",
                         "exact_counting": True},
            "duration": {"passes": 2},
            "queries": {"mode": "per-pass", "k": 0}, "report": {}})
            for seed in seeds]
    first, second = reports
    assert [len(p["levels"]) for p in first.passes] == [2, 2]
    assert all(not q["padded"] for q in first.queries)
    assert (first.passes, first.queries, first.ledger) == (
        second.passes, second.queries, second.ledger)


@st.composite
def small_connected_graphs(draw):
    """A connected graph on 2-10 nodes: a random tree plus random chords."""
    n = draw(st.integers(2, 10))
    edges = {(draw(st.integers(0, v - 1), label="parent"), v)
             for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n),
                      label="chords"))
    return n, sorted(edges)


# the rounds a query row reads, which move with D
ROUND_FIELDS = ("round_fired", "round_answered", "t_pass_start", "t_pass_end",
                "t_edges_start", "t_level_set", "T_used")


@given(small_connected_graphs())
@settings(max_examples=30, deadline=None)
def test_exact_levels_do_not_depend_on_a_diameter_bound_above_the_truth(
        case):
    # on a static graph, exact counting floods reach every node within any
    # D at least the diameter: D, D + 1 and D + 2 give the levels and
    # answers of the central peel, and each level costs 4D + 1 rounds, the
    # reused first level of a later pass 2D + 1
    n, edges = case
    g = DynamicGraph.from_edges(n, edges)
    truth = static_diameter(g)
    seen = []  # each D's answers
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "graph.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        for d in range(truth, truth + 3):
            report = run_scenario({
                "seed": 1, "graph": {"kind": "edge-list", "path": str(path)},
                "adversary": None,
                "protocol": {"epsilon": 0.5, "diameter": d,
                             "exact_counting": True},
                "duration": {"passes": 2},
                "queries": {"mode": "per-pass", "k": 0}, "report": {}})
            ref = peel_reference(g, report.params.factor,
                                 p_cap=report.params.p_cap)
            for p in report.passes:
                assert p["closed_by"] == ref.closed_by
                assert [(rec["node_est"], rec["edge_est"], rec["ratio"])
                        for rec in p["levels"]] == list(ref.records)
                begin = p["start"]  # each level's first round
                for rec in p["levels"]:
                    reused = rec["nodes_start"] is None
                    assert (rec["edges_start"] if reused
                            else rec["nodes_start"]) == begin
                    end = rec["threshold_round"] + 1
                    assert end - rec["edges_start"] == 2 * d + 1
                    assert end - begin == (2 if reused else 4) * d + 1
                    begin = end
            assert all(not q["padded"] for q in report.queries)
            seen.append([{k: v for k, v in q.items() if k not in ROUND_FIELDS}
                         for q in report.queries])
    assert seen[1:] == seen[:1] * 2
