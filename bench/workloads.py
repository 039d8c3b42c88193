"""The three workloads: the configs each one runs and the checks its outputs
must pass.

The configs are literal dicts, so the program receives only generated
inputs and a change to the package's own scenario helpers cannot change a
workload.  Checks use the exact oracle, the centralized peeling reference
and properties the method must have; none compares against stored output.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Seeds used when no --input-seed is given (see README.md).
README_SEEDS = {"churn-dense": 100, "targeted-core": 0}


@dataclass
class Workload:
    name: str
    runs: list[dict]   # configs, in run order
    log: bool          # write the event log of every run


# -- make-up ------------------------------------------------------------------


def churn_dense(seed: int) -> Workload:
    # solve_planted_scenario(n=130, k=80, rate=4, epsilon=1.0, seed=seed,
    # passes=20), with the event log on as in the README's sample config
    conf = {"seed": seed,
            "graph": {"kind": "planted-dense", "n": 130, "clique": 92,
                      "noise_p": 0.02, "hub_star": True},
            "adversary": {"kind": "random-churn", "rate": 4,
                          "mode": "balanced", "protect": "backbone"},
            "protocol": {"epsilon": 1.0, "k": 80, "diameter": 2},
            "duration": {"passes": 20},
            "queries": {"mode": "per-pass", "k": 80, "start_pass": 1,
                        "limit": 20},
            "report": {"emit_log": True}}
    return Workload("churn-dense", [conf], log=True)


def targeted_core(seed: int) -> Workload:
    # the criterion-3 sizing at n=100, k=60 (clique 69) under the targeted
    # adversary at rate 1, refreshing the true core every second round
    conf = {"seed": seed,
            "graph": {"kind": "planted-dense", "n": 100, "clique": 69,
                      "noise_p": 0.02, "hub_star": True},
            "adversary": {"kind": "targeted-attack-on-dense-core", "rate": 1,
                          "protect": "backbone", "refresh_every": 2},
            "protocol": {"epsilon": 1.0, "k": 60, "diameter": 2},
            "duration": {"passes": 20},
            "queries": {"mode": "per-pass", "k": 60, "start_pass": 1,
                        "limit": 20},
            "report": {}}
    return Workload("targeted-core", [conf], log=False)


def _static_graphs() -> list[tuple[dict, float, int]]:
    """The 50 (graph spec, epsilon, seed) entries of acceptance criterion 1."""
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
        entries.append(({"kind": "planted-dense", "n": n,
                         "clique": max(6, n // 4),
                         "noise_p": min(0.5, 3.0 / n), "hub_star": True},
                        eps, 400 + i))
    regular = [(20, 4, 0.3), (30, 5, 0.3), (40, 4, 0.3), (50, 6, 0.3),
               (60, 5, 0.3), (66, 6, 0.5), (80, 6, 0.5), (96, 7, 0.5),
               (110, 6, 0.5), (120, 8, 0.5), (132, 6, 1.0), (150, 7, 1.0),
               (164, 6, 1.0), (180, 7, 1.0), (190, 6, 1.0), (200, 8, 1.0)]
    for i, (n, d, eps) in enumerate(regular):
        entries.append(({"kind": "regular", "n": n, "d": d}, eps, 500 + i))
    return entries


def _connected(adj) -> bool:
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def static_suite(seed_offset: int, order_seed: int) -> Workload:
    """Criterion 1's graphs, each run once with estimators and once with
    exact counting; ``order_seed`` shuffles the run order."""
    from densetrack.scenarios import build_graph

    runs = []
    for gspec, eps, seed in _static_graphs():
        # the first seed in the series seed, seed+1000, ... whose graph is
        # connected, as the auto diameter needs (criterion 1 does the same)
        s = seed + seed_offset
        while not _connected(build_graph(gspec, s).graph.adj):
            s += 1000
        for exact in (False, True):
            runs.append({"seed": s, "graph": gspec, "adversary": None,
                         "protocol": {"epsilon": eps, "k": 0,
                                      "diameter": "auto",
                                      "exact_counting": exact},
                         "duration": {"passes": 1},
                         "queries": {"mode": "per-pass", "k": 0, "limit": 1},
                         "report": {}})
    random.Random(order_seed).shuffle(runs)
    return Workload("static-suite", runs, log=False)


def make(name: str, input_seed: int | None, order_seed: int) -> Workload:
    if name == "churn-dense":
        return churn_dense(README_SEEDS[name] if input_seed is None
                           else input_seed)
    if name == "targeted-core":
        return targeted_core(README_SEEDS[name] if input_seed is None
                             else input_seed)
    return static_suite(0 if input_seed is None else 10000 * input_seed,
                        order_seed)


# -- operation accounting -----------------------------------------------------


def classify_query(q: dict, epsilon: float) -> tuple[bool, list[str]]:
    """(failed, problems) for one query row of a report.

    A query fails when it is unanswered, when its padding ends
    ``cap_exceeded``, when it misses its size target, or when it is
    conditioned and misses its bound.  The bound is recomputed here from
    the exact densities; a disagreement with the program's own flags, or a
    conditioned miss, is a problem as well.
    """
    if q.get("status") != "answered":
        return True, []
    if q["cap_exceeded"]:
        return True, []
    k = q["k"]
    bound = (2 if k == 0 else 3) + Fraction(epsilon)
    answer = Fraction(q["answer_density"])
    optimum = Fraction(q["oracle_density"])
    meets = answer * bound >= optimum
    size_ok = k == 0 or q["answer_size"] >= k
    problems = []
    where = f"query fired at round {q['round_fired']}"
    if meets != q["guarantee_ok"] or size_ok != q["size_ok"]:
        problems.append(f"{where}: report flags disagree with the recomputed "
                        f"bound or size check")
    if q["conditioned"] and not meets:
        problems.append(f"{where}: conditioned answer {answer} misses "
                        f"{bound}-approximation of {optimum}")
    return (not size_ok) or (q["conditioned"] and not meets), problems


# -- workload checks ----------------------------------------------------------


def check_event_log(path: Path, report, protected_hub: bool,
                    rate: int) -> list[str]:
    """Churn records stay within the rate, never touch a protected hub
    edge (0, v), and the file hashes to the digest in the report."""
    problems = []
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for raw in fh:
            digest.update(raw)
            rec = json.loads(raw)
            if rec.get("event") != "churn":
                continue
            edits = rec["edits"]
            if len(edits) > rate:
                problems.append(f"round {rec['round']}: {len(edits)} edits "
                                f"exceed rate {rate}")
            for op, u, v in edits:
                if protected_hub and op == "remove" and min(u, v) == 0:
                    problems.append(f"round {rec['round']}: protected hub "
                                    f"edge ({u}, {v}) removed")
    if digest.hexdigest() != report.log_digest:
        problems.append("event log file does not hash to the report's "
                        "log_digest")
    return problems


def check_static(runs: list[dict], built: list, reports: list) -> list[str]:
    """Exact counting equals the centralized peel level by level, every run
    answers its one k=0 query, d-regular graphs have optimum d/2, and
    max-flow equals enumeration for n <= 20.

    ``built`` holds the (BuiltGraph, ProtocolParams) of each config."""
    from densetrack.oracle import (ENUMERATION_LIMIT, brute_force_densest,
                                   peel_reference)

    problems = []
    enumerated: set[str] = set()
    for conf, (bg, params), rep in zip(runs, built, reports):
        if rep is None:  # raised; its traceback is a problem already
            continue
        gspec = conf["graph"]
        name = f"{gspec['kind']} n={gspec['n']} seed={conf['seed']}"
        g = bg.graph
        if params.exact_counting:
            ref = peel_reference(g, params.factor, p_cap=params.p_cap)
            got = [(lvl["node_est"], lvl["edge_est"])
                   for lvl in rep.passes[0]["levels"]]
            want = [(float(nj), float(mj)) for nj, mj, _ in ref.records]
            if got != want:
                problems.append(f"{name}: exact-counting levels {got} != "
                                f"peel reference {want}")
        statuses = [q.get("status") for q in rep.queries]
        if statuses != ["answered"]:
            problems.append(f"{name}: expected one answered k=0 query, got "
                            f"{statuses}")
            continue
        optimum = Fraction(rep.queries[0]["oracle_density"])
        if gspec["kind"] == "regular" and optimum != Fraction(gspec["d"], 2):
            problems.append(f"{name}: oracle density {optimum} on a "
                            f"{gspec['d']}-regular graph")
        if g.node_count <= ENUMERATION_LIMIT and name not in enumerated:
            enumerated.add(name)
            brute = brute_force_densest(g).density
            if brute != optimum:
                problems.append(f"{name}: max-flow {optimum} != "
                                f"enumeration {brute}")
    return problems
