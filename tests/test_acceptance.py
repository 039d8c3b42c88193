"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here, not computed at
run time.
"""

import time
import numpy as np
import pytest

from densetrack import counting
from densetrack.graph import DynamicGraph, induced_density, static_diameter
from densetrack.harness import check_round_budget, run_scenario
from densetrack.netsim import World
from densetrack.oracle import (OracleCache, brute_force_densest,
                               exact_densest, peel_reference)
from densetrack.protocol import ProtocolNode, params_for
from densetrack.scenarios import build_graph, solve_planted_scenario
from support import sample_edge_estimates


def report_line(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def connected_seed(gspec: dict, seed: int) -> int:
    s = seed
    for _ in range(30):
        built = build_graph(gspec, s)
        if static_diameter(built.graph) != float("inf"):
            return s
        s += 1000
    raise RuntimeError(f"no connected instance near seed {seed}: {gspec}")


# -- criterion 1: static densest guarantee --------------------------------------


def static_densest_suite():
    entries = []
    for i, n in enumerate([20, 24, 28, 32, 36, 40, 44, 48, 50, 54]):
        entries.append(({"kind": "gnp", "n": n, "p": min(0.9, 8.0 / n)},
                        0.3, 100 + i))
    for i, n in enumerate([58, 64, 70, 78, 86]):
        entries.append(({"kind": "gnp", "n": n, "p": 8.0 / n}, 0.5, 200 + i))
    for i, n in enumerate([95, 105]):
        entries.append(({"kind": "gnp", "n": n, "p": 8.0 / n}, 1.0, 300 + i))
    planted = [(30, 0.3), (38, 0.3), (46, 0.3), (54, 0.3), (60, 0.3),
               (70, 0.5), (80, 0.5), (90, 0.5), (100, 0.5), (110, 0.5),
               (120, 1.0), (135, 1.0), (150, 1.0), (165, 1.0), (180, 1.0),
               (190, 1.0), (200, 1.0)]
    for i, (n, eps) in enumerate(planted):
        entries.append(({"kind": "planted-dense", "n": n, "clique": max(6, n // 4),
                         "noise_p": min(0.5, 3.0 / n), "hub_star": True},
                        eps, 400 + i))
    regular = [(20, 4, 0.3), (30, 5, 0.3), (40, 4, 0.3), (50, 6, 0.3),
               (60, 5, 0.3), (66, 6, 0.5), (80, 6, 0.5), (96, 7, 0.5),
               (110, 6, 0.5), (120, 8, 0.5), (132, 6, 1.0), (150, 7, 1.0),
               (164, 6, 1.0), (180, 7, 1.0), (190, 6, 1.0), (200, 8, 1.0)]
    for i, (n, d, eps) in enumerate(regular):
        entries.append(({"kind": "regular", "n": n, "d": d}, eps, 500 + i))
    assert len(entries) == 50
    return entries


def test_criterion_1_static_densest_guarantee():
    start = time.time()
    cache = OracleCache()
    real_fail = exact_fail = 0
    budgets_ok = True
    for gspec, eps, seed in static_densest_suite():
        s = connected_seed(gspec, seed)
        for exact in (False, True):
            conf = {"seed": s, "graph": gspec, "adversary": None,
                    "protocol": {"epsilon": eps, "k": 0, "diameter": "auto",
                                 "exact_counting": exact},
                    "duration": {"passes": 1},
                    "queries": {"mode": "per-pass", "k": 0, "limit": 1},
                    "report": {}}
            rep = run_scenario(conf, cache=cache)
            q = rep.queries[0]
            good = q["status"] == "answered" and q["guarantee_ok"]
            if not good:
                if exact:
                    exact_fail += 1
                else:
                    real_fail += 1
            budgets_ok &= check_round_budget(rep).ok
    elapsed = time.time() - start
    ok = real_fail <= 1 and exact_fail == 0 and budgets_ok and elapsed < 120
    report_line(1, "static densest (2+eps)", ok,
                f"real failures {real_fail}/50 (allowed 1), "
                f"exact failures {exact_fail}/50, budgets_ok={budgets_ok}, "
                f"{elapsed:.0f}s")
    assert real_fail <= 1, "real-estimator runs must meet (2+eps) in >=98%"
    assert exact_fail == 0, "exact-counting runs must meet (2+eps) in 100%"
    assert budgets_ok
    assert elapsed < 120


# hub-star planted graphs whose clique is small beside n: all of V misses
# (2+eps) on each, so an answer that skips the peel fails there
V_FAILS_SUITE = [(120, 18, 0.004), (140, 20, 0.004), (150, 22, 0.003),
                 (160, 20, 0.003), (170, 24, 0.003), (180, 22, 0.002),
                 (190, 26, 0.002), (200, 24, 0.002)]


def test_criterion_1_holds_where_all_of_v_fails():
    cache = OracleCache()
    eps = 1.0
    for i, (n, clique, noise_p) in enumerate(V_FAILS_SUITE):
        gspec = {"kind": "planted-dense", "n": n, "clique": clique,
                 "noise_p": noise_p, "hub_star": True}
        g = build_graph(gspec, 900 + i).graph
        everyone = induced_density(g, range(n)).density
        assert cache.exact_densest(g).density > (2 + eps) * everyone, gspec
        for exact in (False, True):
            conf = {"seed": 900 + i, "graph": gspec, "adversary": None,
                    "protocol": {"epsilon": eps, "k": 0, "diameter": "auto",
                                 "exact_counting": exact},
                    "duration": {"passes": 1},
                    "queries": {"mode": "per-pass", "k": 0, "limit": 1},
                    "report": {}}
            q = run_scenario(conf, cache=cache).queries[0]
            assert q["status"] == "answered" and q["guarantee_ok"], \
                (gspec, exact, q.get("ratio"))


# -- criterion 2: static at-least-k guarantee ------------------------------------


def at_least_k_suite():
    entries = []
    i = 0
    for n in (8, 10, 12, 14, 16, 18, 9, 11, 13, 15):
        entries.append(({"kind": "gnp", "n": n, "p": 0.35}, 600 + i))
        i += 1
    for n in (8, 10, 12, 14, 16, 18, 9, 11, 13, 17):
        entries.append(({"kind": "clique-plus-noise", "n": n,
                         "clique": max(4, n // 3), "extra_edges": n}, 700 + i))
        i += 1
    for n, d in ((8, 3), (10, 4), (12, 3), (14, 4), (16, 5), (18, 4),
                 (10, 3), (12, 5), (14, 3), (16, 3)):
        entries.append(({"kind": "regular", "n": n, "d": d}, 800 + i))
        i += 1
    assert len(entries) == 30
    return entries


def test_criterion_2_static_at_least_k():
    start = time.time()
    cache = OracleCache()
    failures = 0
    runs = 0
    budgets_ok = True
    for gspec, seed in at_least_k_suite():
        s = connected_seed(gspec, seed)
        n = gspec["n"]
        for k in (3, n // 2, n - 2):
            conf = {"seed": s, "graph": gspec, "adversary": None,
                    "protocol": {"epsilon": 1.0, "k": k, "diameter": "auto",
                                 "exact_counting": True},
                    "duration": {"passes": 1},
                    "queries": {"mode": "per-pass", "k": k, "limit": 1},
                    "report": {}}
            rep = run_scenario(conf, cache=cache)
            q = rep.queries[0]
            runs += 1
            if not (q["status"] == "answered" and q["size_ok"]
                    and q["guarantee_ok"]
                    and q["oracle_method"] == "enumeration"):
                failures += 1
            budgets_ok &= check_round_budget(rep).ok
    elapsed = time.time() - start
    ok = failures == 0 and budgets_ok and elapsed < 120
    report_line(2, "static at-least-k (3+eps)", ok,
                f"failures {failures}/{runs}, budgets_ok={budgets_ok}, "
                f"{elapsed:.0f}s")
    assert failures == 0 and budgets_ok and elapsed < 120


# -- criterion 3: dynamic maintenance ---------------------------------------------


def test_criterion_3_dynamic_maintenance():
    start = time.time()
    bad_runs = 0
    conditioned_total = 0
    for rate, n, k, seed0 in ((1, 100, 60, 0), (4, 130, 80, 100)):
        for s in range(20):
            conf = solve_planted_scenario(n=n, k=k, rate=rate, epsilon=1.0,
                                          seed=seed0 + s, passes=20)
            rep = run_scenario(conf)
            budget = check_round_budget(rep)
            conditioned_total += rep.flags["conditioned_queries"]
            ok = (rep.flags["guarantee_failures"] == 0
                  and rep.flags["size_failures"] == 0 and budget.ok)
            if not ok:
                bad_runs += 1
    elapsed = time.time() - start
    ok = bad_runs <= 2 and conditioned_total >= 700 and elapsed < 600
    report_line(3, "dynamic maintenance under churn", ok,
                f"failing runs {bad_runs}/40 (allowed 2), "
                f"conditioned queries {conditioned_total}, {elapsed:.0f}s")
    assert bad_runs <= 2, "conditioned queries must meet bounds in >=95% of runs"
    assert conditioned_total >= 700, "suite must actually exercise the guarantee"
    assert elapsed < 600


# -- criterion 4: counting guarantees ---------------------------------------------


@pytest.mark.parametrize("true_n,delta", [(4, 0.1), (4, 0.01), (10, 0.1),
                                          (10, 0.01), (100, 0.1), (100, 0.01)])
def test_criterion_4_coarse_two_approximation(true_n, delta):
    rng = np.random.default_rng(1000 + true_n)
    est = counting.sample_coarse_estimates(rng, true_n, delta, 10000)
    inside = float(((est >= true_n / 2) & (est <= 2 * true_n)).mean())
    ok = inside > 1 - delta
    report_line(4, f"coarse count window n={true_n} delta={delta}", ok,
                f"P(n/2 <= n' <= 2n) = {inside:.4f}, need > {1 - delta}")
    assert inside > 1 - delta, (
        f"observed coverage {inside:.4f} at n={true_n} misses 1-delta="
        f"{1 - delta}: the LogLog estimate 2**(mean(x) - (gamma/ln 2 + 1/2)) "
        f"over the merged toss tuple should land in [n/2, 2n]")


def test_criterion_4_fine_and_edge_counts():
    start = time.time()
    rng = np.random.default_rng(42)
    fine = counting.sample_fine_estimates(rng, 50, 0.3, 1000)
    fine_ok = float(((fine >= 0.7 * 50) & (fine <= 1.3 * 50)).mean())

    built = build_graph({"kind": "clique-plus-noise", "n": 50, "clique": 10,
                         "extra_edges": 120}, seed=9)
    g = built.graph
    degree_sum = 2 * g.edge_count
    edges = sample_edge_estimates(np.random.default_rng(43), degree_sum,
                                  0.3, 1000)
    true_m = g.edge_count
    edge_ok = float(((edges >= 0.7 * true_m) & (edges <= 1.3 * true_m)).mean())
    elapsed = time.time() - start
    ok = fine_ok >= 0.95 and edge_ok >= 0.95 and elapsed < 180
    report_line(4, "fine node and edge counts at eps=0.3", ok,
                f"fine within-band {fine_ok:.3f}, edges {edge_ok:.3f}, "
                f"{elapsed:.0f}s")
    assert fine_ok >= 0.95 and edge_ok >= 0.95
    assert elapsed < 180


# -- criterion 5: round complexity -------------------------------------------------


def test_criterion_5_round_complexity(tmp_path):
    checks = []
    # static run with several passes
    conf = {"seed": 51, "graph": {"kind": "gnp", "n": 30, "p": 0.25},
            "adversary": None,
            "protocol": {"epsilon": 0.5, "k": 0, "diameter": "auto"},
            "duration": {"passes": 3},
            "queries": {"mode": "per-pass", "k": 0},
            "report": {}}
    conf["seed"] = connected_seed(conf["graph"], 51)
    checks.append(run_scenario(conf))
    # padding-heavy run: a K6 core with four pendants forces the pad branch
    graph_file = tmp_path / "pad.txt"
    graph_file.write_text("\n".join(
        [f"{i} {j}" for i in range(6) for j in range(i + 1, 6)]
        + [f"0 {v}" for v in (6, 7, 8, 9)]) + "\n")
    conf_pad = {"seed": 4,
                "graph": {"kind": "edge-list", "path": str(graph_file)},
                "adversary": None,
                "protocol": {"epsilon": 0.96, "k": 7, "diameter": "auto",
                             "exact_counting": True},
                "duration": {"passes": 1},
                "queries": {"mode": "per-pass", "k": 7},
                "report": {}}
    checks.append(run_scenario(conf_pad))
    # dynamic run
    checks.append(run_scenario(solve_planted_scenario(
        n=80, k=50, rate=1, epsilon=1.0, seed=5, passes=4)))

    all_ok = True
    padded_runs = 0
    for rep in checks:
        budget = check_round_budget(rep)
        all_ok &= budget.ok
        for row in budget.rows:
            if row["check"] == "padding-attempts":
                padded_runs += 1
    assert any(q.get("padded") for rep in checks for q in rep.queries), \
        "suite must include a padding run"
    report_line(5, "round complexity: 4D+1 levels, 2D counts, padding cap",
                all_ok, f"{sum(len(check_round_budget(r).rows) for r in checks)}"
                        f" budget rows, padded runs {padded_runs}")
    assert all_ok


# -- criterion 6: oracle cross-validation ------------------------------------------


def test_criterion_6_oracle_cross_validation():
    start = time.time()
    rng = np.random.default_rng(1234)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(4, 17))
        p = float(rng.uniform(0.1, 0.7))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        g = DynamicGraph.from_edges(n, edges)
        if exact_densest(g).density != brute_force_densest(g).density:
            mismatches += 1
    elapsed = time.time() - start
    report_line(6, "max-flow vs enumeration", mismatches == 0,
                f"mismatches {mismatches}/200, {elapsed:.0f}s")
    assert mismatches == 0


# -- criterion 7: protocol/peel equivalence ----------------------------------------


def test_criterion_7_protocol_peel_equivalence():
    start = time.time()
    rng = np.random.default_rng(4321)
    mismatches = 0
    done = 0
    while done < 100:
        n = int(rng.integers(6, 30))
        p = float(rng.uniform(0.15, 0.6))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        g = DynamicGraph.from_edges(n, edges)
        d = static_diameter(g)
        if d == float("inf"):
            continue
        done += 1
        params = params_for(n, 0.5, max(1, int(d)), exact_counting=True)
        handlers = [ProtocolNode(i, n, params) for i in range(n)]
        world = World(g, handlers, seed=done)
        while handlers[0].pass_index < 1:
            world.run_round()
        fam = handlers[0].family
        sets = [frozenset(h.node_id for h in handlers if h.family.flags[j])
                for j in range(len(fam.records))]
        ref = peel_reference(g, params.factor, p_cap=params.p_cap)
        if sets != list(ref.levels) or fam.closed_by != ref.closed_by:
            mismatches += 1
    elapsed = time.time() - start
    report_line(7, "protocol level sets == centralized peel", mismatches == 0,
                f"mismatches {mismatches}/100, {elapsed:.0f}s")
    assert mismatches == 0


# -- criterion 8: determinism -------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    conf = solve_planted_scenario(n=60, k=45, rate=1, epsilon=1.0, seed=88,
                                  passes=3)
    rep1 = run_scenario(conf, log_path=str(tmp_path / "a.ndjson"))
    rep2 = run_scenario(conf, log_path=str(tmp_path / "b.ndjson"))
    logs_equal = (tmp_path / "a.ndjson").read_bytes() == \
        (tmp_path / "b.ndjson").read_bytes()
    reports_equal = rep1.to_json_bytes() == rep2.to_json_bytes()
    ok = logs_equal and reports_equal
    report_line(8, "byte-identical replay", ok,
                f"log bytes equal={logs_equal}, report bytes equal={reports_equal}")
    assert ok
