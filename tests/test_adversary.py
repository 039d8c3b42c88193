import json

import numpy as np
import pytest

from densetrack.adversary import (RandomChurnAdversary, ScriptedAdversary,
                                  TargetedAdversary)
from densetrack.errors import ChurnBudgetExceeded, ConfigError, InvalidEdit
from densetrack.graph import Arcs, DynamicGraph, edge_key
from densetrack.harness import run_scenario
from densetrack.scenarios import (ScenarioConfig, adversary_from_spec,
                                  build_graph)
from support import arcs_state


def small_graph():
    return DynamicGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)],
                                   churn_rate=2)


def test_scripted_noop_rejected_at_load():
    g = small_graph()
    with pytest.raises(InvalidEdit):
        ScriptedAdversary.load([{"round": 0, "op": "remove", "u": 4, "v": 5}],
                               g, rate=2)


def test_scripted_budget_checked_at_load():
    g = small_graph()
    script = [{"round": 1, "op": "remove", "u": 0, "v": 1},
              {"round": 1, "op": "remove", "u": 1, "v": 2},
              {"round": 1, "op": "remove", "u": 0, "v": 2}]
    with pytest.raises(ChurnBudgetExceeded):
        ScriptedAdversary.load(script, g, rate=2)


def test_scripted_replay_order():
    g = small_graph()
    adv = ScriptedAdversary.load(
        [{"round": 0, "op": "remove", "u": 0, "v": 1},
         {"round": 1, "op": "add", "u": 0, "v": 1}], g, rate=2)
    assert adv.edits_for_round(g, 0) == [("remove", 0, 1)]
    assert adv.edits_for_round(g, 1) == [("add", 0, 1)]
    assert adv.edits_for_round(g, 2) == []


def test_random_churn_respects_budget_and_legality():
    g = small_graph()
    rng = np.random.default_rng(0)
    adv = RandomChurnAdversary(rng=rng, rate=2)
    for r in range(60):
        batch = adv.edits_for_round(g, r)
        assert len(batch) <= 2
        g.apply_churn(batch)  # InvalidEdit would fail the test


def test_random_churn_protected_edges_survive():
    g = small_graph()
    protected = frozenset({(0, 1)})
    adv = RandomChurnAdversary(rng=np.random.default_rng(1), rate=2,
                               protected=protected)
    for r in range(80):
        g.apply_churn(adv.edits_for_round(g, r))
        assert g.has_edge(0, 1)


def test_targeted_prefers_dense_core():
    # K5 core plus sparse fringe: most deletions should land inside the core
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(5, 0), (6, 1), (7, 2)]
    g = DynamicGraph.from_edges(8, edges, churn_rate=1)
    adv = TargetedAdversary(rng=np.random.default_rng(2), rate=1,
                            refresh_every=1)
    core_hits = 0
    removals = 0
    for r in range(8):
        batch = adv.edits_for_round(g, r)
        for op, u, v in batch:
            if op == "remove":
                removals += 1
                if u < 5 and v < 5:
                    core_hits += 1
        g.apply_churn(batch)
    assert removals > 0 and core_hits >= removals * 0.5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_targeted_rate_two_never_repeats_an_edge(seed, tmp_path):
    # at rate >= 2 each slot sees the round-start graph; a slot that edited
    # an edge already edited in the batch made apply_churn raise InvalidEdit
    conf = {"seed": seed,
            "graph": {"kind": "planted-dense", "n": 60, "clique": 30,
                      "noise_p": 0.05, "hub_star": True},
            "adversary": {"kind": "targeted-attack-on-dense-core", "rate": 2,
                          "protect": "backbone", "refresh_every": 10},
            "protocol": {"epsilon": 1.0, "k": 0, "diameter": 2},
            "duration": {"rounds": 400}, "queries": None, "report": {}}
    log = tmp_path / "events.ndjson"
    report = run_scenario(conf, log_path=str(log))
    assert report.rounds_run == 400
    batches = [rec["edits"] for rec in map(json.loads,
                                           log.read_text().splitlines())
               if rec.get("event") == "churn"]
    assert sum(map(len, batches)) > 400
    for edits in batches:
        edges = [edge_key(u, v) for _, u, v in edits]
        assert len(set(edges)) == len(edges), edits


@pytest.mark.parametrize("rate", [1, 3])
def test_targeted_pools_kept_across_rounds_draw_as_rebuilt_ones(rate):
    # the adversary keeps its sorted pool, core edges and arcs while the
    # graph is the one its last batch left; a copy each round forces every
    # rebuild, and an edge inside the planted clique toggled outside the
    # adversary every fifth round must make the kept ones rebuild too.  The
    # arcs, patched from each batch, must be those of the graph it leaves
    built = build_graph({"kind": "planted-dense", "n": 40, "clique": 20,
                         "noise_p": 0.1, "hub_star": True}, 3)
    kept_g, copied_g = built.graph.copy(), built.graph.copy()
    kept_g.churn_rate = copied_g.churn_rate = rate
    kept, copied = (TargetedAdversary(rng=np.random.default_rng(4),
                                      rate=rate, protected=built.protected,
                                      refresh_every=3) for _ in range(2))
    for r in range(200):
        batch = kept.edits_for_round(kept_g, r)
        assert batch == copied.edits_for_round(copied_g.copy(), r), r
        kept_g.apply_churn(batch)
        copied_g.apply_churn(batch)
        assert arcs_state(kept._arcs) == arcs_state(Arcs(copied_g)), r
        if r % 5 == 4:
            toggle = [("remove" if kept_g.has_edge(1, 2) else "add", 1, 2)]
            kept_g.apply_churn(toggle)
            copied_g.apply_churn(toggle)
    assert kept._core_edges == copied._core_edges


def test_spec_validation():
    g = small_graph()
    for spec in ({"kind": "random-churn", "rate": 1, "bogus": True},
                 {"kind": "mystery"}):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({
                "seed": 0, "graph": {"kind": "gnp", "n": 6, "p": 0.5},
                "adversary": spec, "protocol": {"epsilon": 1.0},
                "duration": {"passes": 1}})
    adv = adversary_from_spec(None, g, 0, frozenset())
    assert adv.edits_for_round(g, 0) == []
