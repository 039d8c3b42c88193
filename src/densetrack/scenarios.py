"""Scenario configuration: strict-schema validation, seeded graph builders,
and a solver that sizes planted-dense instances to clear the density
precondition with margin.

Config schema (JSON; unknown keys are rejected everywhere)::

    {
      "seed": 123,
      "graph": {"kind": "gnp", "n": 60, "p": 0.1}
               | {"kind": "regular", "n": 40, "d": 6}
               | {"kind": "planted-dense", "n": 100, "clique": 30,
                  "noise_p": 0.02, "hub_star": true}
               | {"kind": "clique-plus-noise", "n": 50, "clique": 10,
                  "extra_edges": 80}
               | {"kind": "edge-list", "path": "graph.txt"},
      "adversary": null | {"kind": "random-churn", "rate": 1,
                           "mode": "balanced", "protect": "backbone"}
                 | {"kind": "scripted", "rate": 2, "script": [
                       {"round": 4, "op": "remove", "u": 0, "v": 1}]}
                 | {"kind": "targeted-attack-on-dense-core", "rate": 1,
                    "protect": "backbone", "refresh_every": 10, "bias": 0.8},
      "protocol": {"epsilon": 0.5, "k": 0, "diameter": "auto", ...},
      "duration": {"passes": 3} | {"rounds": 500},
      "queries": null | {"mode": "per-pass", "k": 0, "start_pass": 1,
                         "limit": 20}
               | {"mode": "at-rounds", "rounds": [10, 50], "k": 0},
      "report": {"emit_log": false, "out": null}
    }

At-rounds queries queue in round order, duplicates included: each fires at
the first round at or after its own in which no other query is active, and
its ``round_fired`` is the round it actually fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .graph import DynamicGraph, Edge, edge_key, load_edge_list, static_diameter
from .protocol import ProtocolParams, params_for


def _require_keys(d: dict, allowed: set[str], required: set[str],
                  where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


# -- graph builders --------------------------------------------------------------


@dataclass
class BuiltGraph:
    graph: DynamicGraph
    protected: frozenset[Edge]
    diameter_hint: int | None  # structural bound valid under churn, if any
    clique: frozenset[int] = field(default_factory=frozenset)


def build_gnp(rng: np.random.Generator, n: int, p: float) -> BuiltGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return BuiltGraph(DynamicGraph.from_edges(n, edges), frozenset(), None)


def build_regular(rng: np.random.Generator, n: int, d: int) -> BuiltGraph:
    """Random d-regular graph: circulant base plus double-edge swaps."""
    if n * d % 2 or d >= n:
        raise ConfigError("regular graph needs n*d even and d < n")
    edges: set[Edge] = set()
    for off in range(1, d // 2 + 1):
        for i in range(n):
            edges.add(edge_key(i, (i + off) % n))
    if d % 2:  # n is even here; add the antipodal matching
        for i in range(n // 2):
            edges.add(edge_key(i, i + n // 2))
    # randomize while preserving degrees and simplicity
    edge_list = sorted(edges)
    for _ in range(10 * len(edge_list)):
        i, j = rng.integers(len(edge_list), size=2)
        (a, b), (c, e) = edge_list[int(i)], edge_list[int(j)]
        if len({a, b, c, e}) < 4:
            continue
        new1, new2 = edge_key(a, c), edge_key(b, e)
        if new1 in edges or new2 in edges:
            continue
        edges.discard((a, b)), edges.discard((c, e))
        edges.add(new1), edges.add(new2)
        edge_list[int(i)], edge_list[int(j)] = new1, new2
    return BuiltGraph(DynamicGraph.from_edges(n, sorted(edges)),
                      frozenset(), None)


def build_planted(rng: np.random.Generator, n: int, clique: int,
                  noise_p: float, hub_star: bool = True) -> BuiltGraph:
    """Clique on nodes 0..clique-1 plus sparse noise.

    With ``hub_star`` every node keeps a protected edge to node 0, which
    pins the dynamic diameter at 2 no matter what the adversary does to the
    unprotected edges.
    """
    if not (1 <= clique <= n):
        raise ConfigError("clique size out of range")
    edges = {(i, j) for i in range(clique) for j in range(i + 1, clique)}
    protected: set[Edge] = set()
    if hub_star:
        for v in range(1, n):
            edges.add((0, v))
            protected.add((0, v))
    for i in range(n):
        for j in range(max(i + 1, clique), n):
            if (i, j) not in edges and rng.random() < noise_p:
                edges.add((i, j))
    g = DynamicGraph.from_edges(n, sorted(edges))
    hint = 2 if hub_star and n > 1 else None
    return BuiltGraph(g, frozenset(protected), hint,
                      frozenset(range(clique)))


def build_clique_plus_noise(rng: np.random.Generator, n: int, clique: int,
                            extra_edges: int) -> BuiltGraph:
    edges = {(i, j) for i in range(clique) for j in range(i + 1, clique)}
    all_pairs = n * (n - 1) // 2
    if len(edges) + extra_edges > all_pairs:
        raise ConfigError("extra_edges exceeds the complement size")
    while extra_edges > 0:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        e = edge_key(u, v)
        if e in edges:
            continue
        edges.add(e)
        extra_edges -= 1
    return BuiltGraph(DynamicGraph.from_edges(n, sorted(edges)),
                      frozenset(), None, frozenset(range(clique)))


_GRAPH_SCHEMAS = {
    "gnp": ({"kind", "n", "p"}, {"n", "p"}),
    "regular": ({"kind", "n", "d"}, {"n", "d"}),
    "planted-dense": ({"kind", "n", "clique", "noise_p", "hub_star"},
                      {"n", "clique", "noise_p"}),
    "clique-plus-noise": ({"kind", "n", "clique", "extra_edges"},
                          {"n", "clique", "extra_edges"}),
    "edge-list": ({"kind", "path", "n"}, {"path"}),
}


def build_graph(spec: dict, seed: int) -> BuiltGraph:
    kind = spec.get("kind")
    if kind not in _GRAPH_SCHEMAS:
        raise ConfigError(f"unknown graph kind {kind!r}")
    allowed, required = _GRAPH_SCHEMAS[kind]
    _require_keys(spec, allowed, required, f"graph[{kind}]")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x67))))
    if kind == "gnp":
        return build_gnp(rng, int(spec["n"]), float(spec["p"]))
    if kind == "regular":
        return build_regular(rng, int(spec["n"]), int(spec["d"]))
    if kind == "planted-dense":
        return build_planted(rng, int(spec["n"]), int(spec["clique"]),
                             float(spec["noise_p"]),
                             bool(spec.get("hub_star", True)))
    if kind == "clique-plus-noise":
        return build_clique_plus_noise(rng, int(spec["n"]), int(spec["clique"]),
                                       int(spec["extra_edges"]))
    g, _ = load_edge_list(spec["path"], node_count=spec.get("n"))
    return BuiltGraph(g, frozenset(), None)


# -- scenario config --------------------------------------------------------------


_PROTOCOL_KEYS = {"epsilon", "k", "diameter", "count_eps", "delta_fail", "c",
                  "p_cap", "pad_cap", "exact_counting", "strict_congest",
                  "threshold_factor"}


@dataclass
class ScenarioConfig:
    raw: dict
    seed: int
    graph_spec: dict
    adversary_spec: dict | None
    protocol_spec: dict
    duration: dict
    queries: dict | None
    report: dict

    @classmethod
    def from_dict(cls, conf: dict) -> "ScenarioConfig":
        _require_keys(conf, {"seed", "graph", "adversary", "protocol",
                             "duration", "queries", "report"},
                      {"seed", "graph", "protocol", "duration"}, "config")
        protocol = dict(conf["protocol"])
        _require_keys(protocol, _PROTOCOL_KEYS, {"epsilon"}, "protocol")
        duration = dict(conf["duration"])
        _require_keys(duration, {"passes", "rounds"}, set(), "duration")
        if len(duration) != 1:
            raise ConfigError("duration needs exactly one of passes/rounds")
        queries = conf.get("queries")
        if queries is not None:
            queries = dict(queries)
            mode = queries.get("mode")
            if mode == "per-pass":
                _require_keys(queries, {"mode", "k", "start_pass", "limit"},
                              {"mode", "k"}, "queries")
            elif mode == "at-rounds":
                _require_keys(queries, {"mode", "rounds", "k"},
                              {"mode", "rounds", "k"}, "queries")
            else:
                raise ConfigError(f"unknown query mode {mode!r}")
        report = dict(conf.get("report") or {})
        _require_keys(report, {"emit_log", "out"}, set(), "report")
        return cls(raw=conf, seed=int(conf["seed"]), graph_spec=dict(conf["graph"]),
                   adversary_spec=(dict(conf["adversary"])
                                   if conf.get("adversary") else None),
                   protocol_spec=protocol, duration=duration, queries=queries,
                   report=report)

    def build(self) -> tuple[BuiltGraph, ProtocolParams]:
        built = build_graph(self.graph_spec, self.seed)
        n = built.graph.node_count
        pspec = dict(self.protocol_spec)
        diameter = pspec.pop("diameter", "auto")
        if diameter == "auto":
            if built.diameter_hint is not None:
                diameter = built.diameter_hint
            else:
                d = static_diameter(built.graph)
                if d == float("inf"):
                    raise ConfigError(
                        "auto diameter needs a connected initial graph")
                diameter = max(1, int(d))
                if self.adversary_spec and int(self.adversary_spec.get("rate", 0)):
                    raise ConfigError(
                        "under churn, supply an explicit diameter bound or use "
                        "a hub-star planted graph")
        params = params_for(n, float(pspec.pop("epsilon")), int(diameter),
                            **pspec)
        if params.k > n:
            raise ConfigError(f"k={params.k} exceeds n={n}")
        return built, params


def solve_planted_scenario(*, n: int, k: int, rate: int, epsilon: float = 1.0,
                           noise_p: float = 0.02, margin: float = 2.0,
                           seed: int = 0, passes: int = 20) -> dict:
    """Size the planted clique so the at-least-k optimum clears the density
    precondition ``24*T*rate / (k*epsilon)`` with the requested margin.

    The hub-star construction pins D = 2 and the pass structure at three
    levels (everything, clique, fixed point), so the wall length of a pass is
    ``8*D + 2 = 18`` rounds; the clique is sized against that bound and the
    construction raises when no feasible clique fits inside ``n``.
    """
    diameter = 2
    t_rounds = 8 * diameter + 2
    need = margin * 24.0 * t_rounds * rate / (max(k, 1) * epsilon)
    delta = epsilon / 24.0
    # keep the clique comfortably above (1+delta)k so the chosen level never
    # needs padding even with estimator wobble
    q_floor = max(3, int(1.1 * (1.0 + delta) * k) + 1)
    q = None
    for cand in range(q_floor, n + 1):
        if (cand - 1) / 2.0 >= need:
            q = cand
            break
    if q is None:
        raise ConfigError(
            f"no clique within n={n} clears precondition {need:.1f}; "
            f"raise n or k, or lower rate")
    if k > n:
        raise ConfigError("k exceeds n")
    return {
        "seed": seed,
        "graph": {"kind": "planted-dense", "n": n, "clique": q,
                  "noise_p": noise_p, "hub_star": True},
        "adversary": ({"kind": "random-churn", "rate": rate,
                       "mode": "balanced", "protect": "backbone"}
                      if rate else None),
        "protocol": {"epsilon": epsilon, "k": k, "diameter": 2},
        "duration": {"passes": passes},
        "queries": {"mode": "per-pass", "k": k, "start_pass": 1,
                    "limit": passes},
        "report": {},
    }
