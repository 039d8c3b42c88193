import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from densetrack import harness
from densetrack.errors import ConfigError, DensetrackError, RoundCapExceeded
from densetrack.harness import (check_round_budget, emit_report, queries_csv,
                                replay_log, run_scenario)
from densetrack.netsim import EventLog
from densetrack.protocol import PROTOCOL_KEYS, ProtocolParams
from densetrack.scenarios import (ScenarioConfig, adversary_from_spec,
                                  build_graph, solve_planted_scenario)
from support import measure_dynamic_diameter, round_start_edges, run_script


def k5_config(exact=True, epsilon=0.5):
    return {
        "seed": 21,
        "graph": {"kind": "clique-plus-noise", "n": 5, "clique": 5,
                  "extra_edges": 0},
        "adversary": None,
        "protocol": {"epsilon": epsilon, "k": 0, "diameter": "auto",
                     "exact_counting": exact},
        "duration": {"passes": 1},
        "queries": {"mode": "per-pass", "k": 0},
        "report": {},
    }


def k6_pendants_config(tmp_path, duration, rounds, k=7):
    """Criterion 5's K6 with four pendants, exact counting, at-rounds
    queries."""
    graph = tmp_path / "pad.txt"
    graph.write_text("\n".join(
        [f"{i} {j}" for i in range(6) for j in range(i + 1, 6)]
        + [f"0 {v}" for v in (6, 7, 8, 9)]) + "\n")
    return {"seed": 4, "graph": {"kind": "edge-list", "path": str(graph)},
            "adversary": None,
            "protocol": {"epsilon": 0.96, "k": k, "diameter": "auto",
                         "exact_counting": True},
            "duration": duration,
            "queries": {"mode": "at-rounds", "rounds": rounds, "k": k},
            "report": {}}


def capped_padding_config(tmp_path):
    """60 rounds, a padded k=7 query at round 58 that cannot finish before
    the cap."""
    return k6_pendants_config(tmp_path, {"rounds": 60}, [58])


class TestConfigValidation:
    def test_unknown_keys_rejected(self):
        conf = k5_config()
        conf["extra"] = 1
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(conf)

    def test_unknown_protocol_keys_rejected(self):
        conf = k5_config()
        conf["protocol"]["mystery"] = 1
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(conf)

    def test_duration_needs_one_mode(self):
        conf = k5_config()
        conf["duration"] = {"passes": 1, "rounds": 10}
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(conf)

    def test_auto_diameter_requires_connected(self):
        conf = k5_config()
        conf["graph"] = {"kind": "clique-plus-noise", "n": 6, "clique": 3,
                        "extra_edges": 0}
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(conf).build()

    def test_churn_requires_explicit_diameter(self):
        conf = k5_config()
        conf["adversary"] = {"kind": "random-churn", "rate": 1}
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(conf).build()

    def test_k_cannot_exceed_n(self):
        conf = k5_config()
        conf["protocol"]["k"] = 9
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(conf).build()

    # (key path, bad value) on k5_config: n = 5, per-pass queries, no
    # adversary.  Each is refused while the config builds, before round 0.
    BAD_VALUES = [
        pytest.param(("protocol", "epsilon"), 2, id="epsilon-2"),
        pytest.param(("protocol", "epsilon"), 0, id="epsilon-0"),
        pytest.param(("protocol", "count_eps"), 2, id="count_eps-2"),
        pytest.param(("protocol", "count_eps"), 0, id="count_eps-0"),
        pytest.param(("protocol", "delta_fail"), 1.5, id="delta_fail-1.5"),
        pytest.param(("protocol", "delta_fail"), 0, id="delta_fail-0"),
        pytest.param(("protocol", "diameter"), 0, id="diameter-0"),
        pytest.param(("protocol", "k"), -1, id="protocol.k-negative"),
        pytest.param(("queries", "k"), 50, id="queries.k-above-n"),
        pytest.param(("queries", "k"), -1, id="queries.k-negative"),
        pytest.param(("queries", "k"), 2.5, id="queries.k-float"),
        pytest.param(("queries", "limit"), 0, id="queries.limit-0"),
        pytest.param(("queries", "start_pass"), -1,
                     id="queries.start_pass-negative"),
        pytest.param(("queries",), {"mode": "at-rounds", "k": 0,
                                    "rounds": [4, -1]},
                     id="queries.rounds-negative"),
        pytest.param(("queries",), {"mode": "at-rounds", "k": 0,
                                    "rounds": [2.5]},
                     id="queries.rounds-float"),
        pytest.param(("queries",), {"mode": "at-rounds", "k": 0,
                                    "rounds": 10},
                     id="queries.rounds-not-a-list"),
        pytest.param(("adversary",), {"kind": "random-churn", "rate": 0,
                                      "mode": "balancd"},
                     id="adversary.mode-typo"),
        pytest.param(("adversary",), {"kind": "random-churn", "rate": 0,
                                      "protect": "all"},
                     id="adversary.protect-random-churn"),
        pytest.param(("adversary",), {"kind": "targeted-attack-on-dense-core",
                                      "rate": 0, "protect": "Backbone"},
                     id="adversary.protect-targeted"),
        pytest.param(("protocol", "epsilon"), "x", id="epsilon-string"),
        pytest.param(("protocol", "diameter"), "abc", id="diameter-string"),
        pytest.param(("graph", "n"), "ten", id="graph.n-string"),
        pytest.param(("graph", "clique"), -2, id="graph.clique-negative"),
        pytest.param(("graph", "clique"), 7, id="graph.clique-above-n"),
        # probabilities lie in [0, 1]; the diameter is explicit, so an
        # empty graph would build
        *(pytest.param((), {**k5_config(), "graph": graph,
                            "protocol": {"epsilon": 0.5, "diameter": 2}},
                       id=f"graph.{name}")
          for name, graph in (
              ("p-negative", {"kind": "gnp", "n": 6, "p": -1.0}),
              ("p-above-1", {"kind": "gnp", "n": 6, "p": 7.5}),
              ("p-nan", {"kind": "gnp", "n": 6, "p": math.nan}),
              ("noise_p-negative", {"kind": "planted-dense", "n": 6,
                                    "clique": 4, "noise_p": -2.0}),
              ("noise_p-above-1", {"kind": "planted-dense", "n": 6,
                                   "clique": 4, "noise_p": 3.0}))),
        # rate 0 keeps the auto diameter legal, so only the key is bad
        *(pytest.param(("adversary",), {"kind": "targeted-attack-on-dense-core",
                                        "rate": 0, key: value},
                       id=f"adversary.{key}-{value}")
          for key, value in (("bias", -0.5), ("bias", 1.5),
                             ("refresh_every", 0), ("refresh_every", -3))),
        pytest.param(("protocol", "p_cap"), "x", id="p_cap-string"),
        # a pass closes by a fixed point only from its second level on
        pytest.param(("protocol", "p_cap"), 0, id="p_cap-0"),
        pytest.param(("protocol", "p_cap"), -3, id="p_cap--3"),
        # the fine tuple's length constant is positive
        pytest.param(("protocol", "c"), 0, id="c-0"),
        pytest.param(("protocol", "c"), -1, id="c--1"),
        # one attempt is the least a padded query can make
        pytest.param(("protocol", "pad_cap"), 0, id="pad_cap-0"),
        pytest.param(("protocol", "pad_cap"), -1, id="pad_cap--1"),
        # a level's survivors need a positive degree threshold
        pytest.param(("protocol", "threshold_factor"), 0,
                     id="threshold_factor-0"),
        pytest.param(("protocol", "threshold_factor"), -1.0,
                     id="threshold_factor--1.0"),
        pytest.param(("protocol", "threshold_factor"), math.nan,
                     id="threshold_factor-nan"),
        # a failure probability of 1 promises nothing
        pytest.param(("protocol", "delta_fail"), 1.0, id="delta_fail-1.0"),
        pytest.param(("protocol", "count_eps"), math.nan, id="count_eps-nan"),
        pytest.param(("protocol", "exact_counting"), "yes",
                     id="exact_counting-string"),
        *(pytest.param((section,), value, id=f"{section}-not-an-object")
          for section, value in (("graph", "x"), ("adversary", 5),
                                 ("protocol", 5), ("duration", 5),
                                 ("queries", 5), ("report", 5))),
        pytest.param((), 5, id="config-not-an-object"),
        pytest.param(("report", "out"), 5, id="report.out-int"),
        pytest.param(("report", "emit_log"), "no",
                     id="report.emit_log-string"),
        pytest.param(("graph",), {"kind": "edge-list", "path": 5},
                     id="graph.path-int"),
        # rate 0 keeps the auto diameter legal, so only the script is bad
        *(pytest.param(("adversary",), {"kind": "scripted", "rate": 0,
                                        "script": script},
                       id=f"adversary.script-{name}")
          for name, script in (
              ("not-a-list", {"round": 1, "op": "remove", "u": 0, "v": 1}),
              ("op-typo", [{"round": 1, "op": "cut", "u": 0, "v": 1}]),
              ("op-missing", [{"round": 1, "u": 0, "v": 1}]),
              ("unknown-key", [{"round": 1, "op": "remove", "u": 0, "v": 1,
                                "w": 2}]),
              # an edit before round 0 would never be made
              ("negative-round", [{"round": -1, "op": "remove", "u": 0,
                                   "v": 1}]))),
    ]

    @pytest.mark.parametrize("path,value", BAD_VALUES)
    def test_bad_value_rejected_at_build(self, path, value):
        conf = k5_config()
        if not path:
            conf = value
        else:
            *parents, key = path
            node = conf
            for p in parents:
                node = node[p]
            node[key] = value
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(conf).build()

    @pytest.mark.parametrize("path,value", [
        case for case in BAD_VALUES if len(case.values[0]) == 2
        and case.values[0][0] == "protocol" and case.values[0][1] != "k"])
    def test_params_refuse_a_bad_protocol_value_alike(self, path, value):
        # the config refuses it before any graph is built, and a direct
        # construction with the same text
        conf = k5_config()
        conf["protocol"][path[1]] = value
        with pytest.raises(ConfigError) as by_config:
            ScenarioConfig.from_dict(conf)
        with pytest.raises(ConfigError) as direct:
            ProtocolParams(**{"epsilon": 0.5, "diameter": 2, path[1]: value})
        assert str(direct.value) == str(by_config.value)

    def test_protocol_table_holds_every_param_and_k(self):
        assert set(PROTOCOL_KEYS) == {
            f.name for f in dataclasses.fields(ProtocolParams)} | {"k"}

    def test_readme_sample_config_builds(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Scenario config", 1)[1]
        sample = section.split("```json", 1)[1].split("```", 1)[0]
        built, params = ScenarioConfig.from_dict(json.loads(sample)).build()
        assert built.graph.node_count == 100 and params.diameter == 2

    @staticmethod
    def hub_star_config(adversary):
        """Planted n=40 hub star, auto diameter, under ``adversary``."""
        return {"seed": 5,
                "graph": {"kind": "planted-dense", "n": 40, "clique": 12,
                          "noise_p": 0.05, "hub_star": True},
                "adversary": adversary,
                "protocol": {"epsilon": 1.0, "k": 0, "diameter": "auto"},
                "duration": {"passes": 3},
                "queries": {"mode": "per-pass", "k": 0}, "report": {}}

    @pytest.mark.parametrize("adversary", [
        # ran into DesyncDetected at round 26 while the hint was trusted
        {"kind": "random-churn", "rate": 2, "mode": "uniform",
         "protect": "none"},
        {"kind": "scripted", "rate": 1,
         "script": [{"round": 3, "op": "remove", "u": 0, "v": 20}]},
    ], ids=["random-churn-unprotected", "scripted"])
    def test_hub_hint_refused_when_hub_edges_can_go(self, adversary):
        config = ScenarioConfig.from_dict(self.hub_star_config(adversary))
        with pytest.raises(ConfigError, match="explicit diameter bound"):
            config.build()

    @pytest.mark.parametrize("adversary", [
        {"kind": "random-churn", "rate": 2, "mode": "uniform",
         "protect": "backbone"},
        {"kind": "targeted-attack-on-dense-core", "rate": 1},
        {"kind": "scripted", "rate": 0, "script": []},
    ], ids=["random-churn-backbone", "targeted-default-backbone",
            "scripted-rate-0"])
    def test_hub_hint_kept_when_hub_edges_stay(self, adversary):
        _, params = ScenarioConfig.from_dict(
            self.hub_star_config(adversary)).build()
        assert params.diameter == 2

    @pytest.mark.parametrize("adversary", [
        {"kind": "random-churn", "rate": 0, "mode": "uniform",
         "protect": "none"},
        {"kind": "targeted-attack-on-dense-core", "rate": 0,
         "protect": "none"},
    ])
    def test_accepted_adversary_values_build(self, adversary):
        conf = k5_config()
        conf["adversary"] = adversary
        ScenarioConfig.from_dict(conf).build()


class TestRunScenario:
    def test_static_k5_ratio_bound(self):
        rep = run_scenario(k5_config(exact=False))
        q = rep.queries[0]
        assert q["status"] == "answered"
        ratio = Fraction(*map(int, q["ratio"].split("/")))
        assert ratio <= Fraction(5, 2)  # 2 + epsilon
        assert q["guarantee_ok"] and q["conditioned"]

    def test_query_before_first_pass_is_recorded(self):
        conf = {
            "seed": 3,
            "graph": {"kind": "clique-plus-noise", "n": 4, "clique": 2,
                      "extra_edges": 2},
            "adversary": None,
            "protocol": {"epsilon": 0.5, "k": 0, "diameter": "auto",
                         "exact_counting": True},
            "duration": {"passes": 1},
            "queries": {"mode": "at-rounds", "rounds": [1], "k": 0},
            "report": {},
        }
        rep = run_scenario(conf)
        assert rep.queries[0]["status"] == "no-complete-family"
        assert rep.flags["answered_queries"] == 0

    def test_planted_with_churn_reports_cleanly(self):
        conf = {
            "seed": 9,
            "graph": {"kind": "planted-dense", "n": 60, "clique": 15,
                      "noise_p": 0.05},
            "adversary": {"kind": "random-churn", "rate": 1,
                          "mode": "balanced", "protect": "backbone"},
            "protocol": {"epsilon": 0.5, "k": 0, "diameter": 2},
            "duration": {"passes": 3},
            "queries": {"mode": "per-pass", "k": 0},
            "report": {},
        }
        rep = run_scenario(conf)
        assert rep.flags["answered_queries"] == 3
        # k=0 with churn cannot clear the precondition at this scale; the
        # report tags the rows instead of asserting on them
        assert rep.flags["conditioned_queries"] == 0
        assert rep.flags["guarantee_failures"] == 0
        for q in rep.queries:
            ratio = Fraction(*map(int, q["ratio"].split("/")))
            assert ratio >= 1

    def test_targeted_adversary_scenario(self):
        conf = {
            "seed": 14,
            "graph": {"kind": "planted-dense", "n": 40, "clique": 12,
                      "noise_p": 0.04},
            "adversary": {"kind": "targeted-attack-on-dense-core", "rate": 1,
                          "protect": "backbone", "refresh_every": 8},
            "protocol": {"epsilon": 1.0, "k": 0, "diameter": 2},
            "duration": {"passes": 3},
            "queries": {"mode": "per-pass", "k": 0},
            "report": {},
        }
        rep = run_scenario(conf)
        assert rep.flags["answered_queries"] == 3
        assert check_round_budget(rep).ok

    def test_hard_round_cap_is_typed_and_closes_the_log(self, tmp_path,
                                                         monkeypatch):
        opened = []

        class RecordingLog(EventLog):
            def __init__(self, path=None):
                super().__init__(path)
                opened.append(self)

        monkeypatch.setattr(harness, "EventLog", RecordingLog)
        log = tmp_path / "events.ndjson"
        with pytest.raises(RoundCapExceeded, match="hard round cap 60"):
            run_scenario(capped_padding_config(tmp_path), log_path=str(log))
        assert issubclass(RoundCapExceeded, DensetrackError)
        assert len(opened) == 1 and opened[0]._fh is None
        lines = log.read_text().splitlines()
        assert len(lines) == opened[0].records > 60

    def test_duplicate_at_rounds_are_both_answered(self, tmp_path):
        rep = run_scenario(k6_pendants_config(tmp_path, {"passes": 1},
                                              [60, 60], k=0))
        assert [(q["status"], q["round_fired"]) for q in rep.queries] == \
            [("answered", 60), ("answered", 61)]

    def test_overlapping_padded_queries_wait_their_turn(self, tmp_path):
        rep = run_scenario(k6_pendants_config(tmp_path, {"passes": 1},
                                              [80, 81]))
        rows = rep.queries
        assert [q["status"] for q in rows] == ["answered", "answered"]
        assert all(q["padded"] for q in rows)
        # the second fires the round after the first is answered
        assert rows[0]["round_fired"] == 80
        assert rows[1]["round_fired"] == rows[0]["round_answered"] + 1

    def test_hub_star_bounds_measured_dynamic_diameter(self):
        built = build_graph({"kind": "planted-dense", "n": 24, "clique": 8,
                             "noise_p": 0.05}, seed=2)
        g = built.graph
        g.churn_rate = 2
        adv = adversary_from_spec({"kind": "random-churn", "rate": 2,
                                   "mode": "balanced", "protect": "backbone"},
                                  g, 2, built.protected)
        trace = round_start_edges(g, adv, 40)
        measured = measure_dynamic_diameter(trace, 24)
        assert measured <= 2  # the protected star pins the flooding time

    def test_answer_density_recomputed_exactly(self):
        rep = run_scenario(k5_config())
        q = rep.queries[0]
        assert q["answer_density"] == "2/1"  # K5 exact density
        assert q["oracle_density"] == "2/1"


class TestBudget:
    def test_budget_rows(self):
        rep = run_scenario(k5_config())
        check = check_round_budget(rep)
        assert check.ok
        kinds = {row["check"] for row in check.rows}
        assert "pass-length" in kinds and "edge-count-span" in kinds

    def test_budget_reads_the_report_not_a_rebuilt_scenario(self,
                                                            monkeypatch):
        rep = run_scenario(k5_config())

        def no_build(self):
            raise AssertionError("check_round_budget rebuilt the scenario")

        monkeypatch.setattr(ScenarioConfig, "build", no_build)
        assert check_round_budget(rep).ok

    def test_padding_attempt_rows(self):
        conf = {
            "seed": 4,
            "graph": {"kind": "clique-plus-noise", "n": 10, "clique": 6,
                      "extra_edges": 14},
            "adversary": None,
            "protocol": {"epsilon": 0.96, "k": 7, "diameter": "auto",
                         "exact_counting": True},
            "duration": {"passes": 1},
            "queries": {"mode": "per-pass", "k": 7},
            "report": {},
        }
        rep = run_scenario(conf)
        check = check_round_budget(rep)
        assert check.ok
        if rep.queries[0].get("padded"):
            assert any(r["check"] == "padding-attempts" for r in check.rows)


class TestEmission:
    def test_csv_row_count_matches_queries(self, tmp_path):
        conf = k5_config()
        conf["duration"] = {"passes": 3}
        rep = run_scenario(conf)
        text = queries_csv(rep)
        assert len(text.splitlines()) == 1 + len(rep.queries)

    def test_reports_are_deterministic(self, tmp_path):
        conf = solve_planted_scenario(n=50, k=40, rate=1, epsilon=1.0,
                                      seed=13, passes=2)
        r1 = run_scenario(conf, log_path=str(tmp_path / "a.ndjson"))
        r2 = run_scenario(conf, log_path=str(tmp_path / "b.ndjson"))
        assert r1.to_json_bytes() == r2.to_json_bytes()
        assert (tmp_path / "a.ndjson").read_bytes() == \
            (tmp_path / "b.ndjson").read_bytes()

    def test_emit_and_replay(self, tmp_path):
        conf = solve_planted_scenario(n=60, k=45, rate=1, epsilon=1.0,
                                      seed=5, passes=1)
        log_path = tmp_path / "events.ndjson"
        rep = run_scenario(conf, log_path=str(log_path))
        paths = emit_report(rep, str(tmp_path))
        assert json.loads((tmp_path / "report.json").read_text())["seed"] == 5
        res = replay_log(str(log_path), str(tmp_path / "replay.ndjson"))
        assert res.identical

    def test_ratio_never_below_one_for_exact_oracle(self):
        conf = k5_config()
        conf["duration"] = {"passes": 2}
        rep = run_scenario(conf)
        for q in rep.queries:
            if q.get("status") == "answered" and q["oracle_method"] != "bounds":
                num, den = map(int, q["ratio"].split("/"))
                assert Fraction(num, den) >= 1


class TestInvariants:
    def test_exact_static_answers_beat_the_tight_factor(self):
        # with exact counts and no churn the answer stays within
        # 2*(1+d)^2/(1-d) of optimal, a tighter factor than 2+eps
        import numpy as np
        rng = np.random.default_rng(33)
        for trial in range(6):
            n = int(rng.integers(10, 26))
            p = float(rng.uniform(0.25, 0.5))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p]
            gspec = {"kind": "clique-plus-noise", "n": n,
                     "clique": max(4, n // 3), "extra_edges": max(8, n)}
            conf = {"seed": 900 + trial, "graph": gspec, "adversary": None,
                    "protocol": {"epsilon": 0.5, "k": 0, "diameter": "auto",
                                 "exact_counting": True},
                    "duration": {"passes": 1},
                    "queries": {"mode": "per-pass", "k": 0, "limit": 1},
                    "report": {}}
            try:
                rep = run_scenario(conf)
            except ConfigError:
                continue  # disconnected sample
            q = rep.queries[0]
            ratio = Fraction(*map(int, q["ratio"].split("/")))
            d = Fraction(1, 48)  # epsilon/24
            assert ratio <= 2 * (1 + d) ** 2 / (1 - d)

    def test_size_bound_recorded_and_holds(self):
        conf = {
            "seed": 4,
            "graph": {"kind": "clique-plus-noise", "n": 10, "clique": 6,
                      "extra_edges": 14},
            "adversary": None,
            "protocol": {"epsilon": 0.96, "k": 5, "diameter": "auto",
                         "exact_counting": True},
            "duration": {"passes": 2},
            "queries": {"mode": "per-pass", "k": 5},
            "report": {},
        }
        rep = run_scenario(conf)
        for q in rep.queries:
            if q.get("status") == "answered":
                assert q["size_bound_ok"]

    def test_duration_in_rounds(self):
        conf = k5_config()
        conf["duration"] = {"rounds": 40}
        conf["queries"] = None
        rep = run_scenario(conf)
        assert rep.rounds_run == 40
        assert len(rep.passes) >= 2


class TestStrictMode:
    def test_strict_protocol_matches_logical_and_fits_budget(self):
        conf = {
            "seed": 3,
            "graph": {"kind": "clique-plus-noise", "n": 6, "clique": 4,
                      "extra_edges": 5},
            "adversary": None,
            "protocol": {"epsilon": 1.0, "k": 0, "diameter": "auto",
                         "strict_congest": True, "delta_fail": 0.5},
            "duration": {"passes": 1},
            "queries": {"mode": "per-pass", "k": 0, "limit": 1},
            "report": {},
        }
        strict = run_scenario(conf)
        logical_conf = dict(conf)
        logical_conf["protocol"] = {"epsilon": 1.0, "k": 0, "diameter": "auto",
                                    "delta_fail": 0.5}
        logical = run_scenario(logical_conf)
        # coordinate-serial merging commutes with full-tuple merging
        assert strict.queries[0]["answer_density"] == \
            logical.queries[0]["answer_density"]
        assert strict.ledger["global_max_bits"] <= 66  # one coord + flags
        assert logical.ledger["global_max_bits"] > 1000
        assert strict.rounds_run > logical.rounds_run

    def test_ledger_totals_reconcile(self):
        rep = run_scenario(k5_config(exact=False))
        assert rep.ledger["total_bits"] == sum(
            t["total_bits"] for t in rep.ledger["tags"].values())


class TestPlantedSolver:
    def test_precondition_cleared(self):
        conf = solve_planted_scenario(n=100, k=60, rate=1, epsilon=1.0,
                                      seed=1, passes=2)
        rep = run_scenario(conf)
        assert rep.flags["answered_queries"] == 2
        assert rep.flags["conditioned_queries"] == 2
        assert rep.flags["guarantee_failures"] == 0

    def test_infeasible_raises(self):
        with pytest.raises(ConfigError):
            solve_planted_scenario(n=30, k=10, rate=4, epsilon=1.0)

    @pytest.mark.parametrize("seed", [1, 5, 100])
    def test_reference_padded_query_accepts(self, seed):
        # these seeds pad one query; with a sub-integer window it ran to
        # the cap (seeds 5 and 100) or to attempt 28 (seed 1), spanned
        # pass closes and cost the later passes their queries
        conf = solve_planted_scenario(n=130, k=80, rate=4, epsilon=1.0,
                                      seed=seed, passes=20)
        rep = run_scenario(conf)
        assert any(q["padded"] for q in rep.queries)
        assert not any(q["cap_exceeded"] for q in rep.queries)
        assert len(rep.queries) == 20 and rep.flags["answered_queries"] == 20
        assert rep.rounds_run == 366

    def test_demo_script_runs(self, tmp_path):
        proc = run_script("demo_dynamic.py", "--passes", 1, "--n", 60,
                          "--k", 30, "--rate", 0, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "passes: 1" in proc.stdout

    def test_hub_star_pins_diameter(self):
        built = build_graph({"kind": "planted-dense", "n": 30, "clique": 10,
                             "noise_p": 0.02}, seed=0)
        assert built.diameter_hint == 2
        assert all((0, v) in built.protected for v in range(1, 30))
