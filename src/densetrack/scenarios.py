"""Scenario configuration: strict-schema validation, seeded graph builders,
and a solver that sizes planted-dense instances to clear the density
precondition with margin.

Config schema (JSON; unknown keys and wrong-typed values are rejected)::

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

Every query waits in one queue in round order, duplicates included (a
per-pass query is due when its pass closes; ``start_pass`` defaults to 1,
``limit`` to none): each fires at the first round at or after its own in
which no other query is active, and its ``round_fired`` is the round it
actually fired.  ``queries.k`` is the query size; ``protocol.k`` is only
range-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import check_adversary_spec
from .errors import ConfigError
from .graph import DynamicGraph, Edge, edge_key, load_edge_list, static_diameter
from .protocol import ProtocolParams, params_for


_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean"}


def _checked(x, kind: type, where: str, low: int | None = None):
    """``x`` converted to ``kind``, or a ConfigError naming the key path
    ``where``.  An int must be a JSON integer, a float any JSON number and a
    bool a JSON boolean; ``low`` is an inclusive lower bound."""
    if kind is bool:
        ok = isinstance(x, bool)
    else:
        ok = not isinstance(x, bool) and isinstance(
            x, int if kind is int else (int, float))
    if not ok or (low is not None and x < low):
        at_least = "" if low is None else f" >= {low}"
        raise ConfigError(
            f"{where} must be {_KIND_NAMES[kind]}{at_least}, got {x!r}")
    return kind(x)


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
    return BuiltGraph(g, frozenset(protected), hint)


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
                      frozenset(), None)


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

    def get(key, kind, low=None):
        return _checked(spec[key], kind, f"graph.{key}", low)

    if kind == "gnp":
        return build_gnp(rng, get("n", int, 1), get("p", float))
    if kind == "regular":
        return build_regular(rng, get("n", int, 1), get("d", int, 0))
    if kind == "planted-dense":
        return build_planted(rng, get("n", int, 1), get("clique", int),
                             get("noise_p", float),
                             _checked(spec.get("hub_star", True), bool,
                                      "graph.hub_star"))
    if kind == "clique-plus-noise":
        return build_clique_plus_noise(rng, get("n", int, 1), get("clique", int),
                                       get("extra_edges", int, 0))
    g, _ = load_edge_list(spec["path"],
                          node_count=get("n", int, 1) if "n" in spec else None)
    return BuiltGraph(g, frozenset(), None)


# -- scenario config --------------------------------------------------------------


def _check_adversary(spec: dict) -> None:
    """:func:`check_adversary_spec` plus the types of the numbers that
    :func:`adversary_from_spec` converts."""
    check_adversary_spec(spec)
    for key, kind, low in (("rate", int, 0), ("refresh_every", int, None),
                           ("bias", float, None)):
        if key in spec:
            _checked(spec[key], kind, f"adversary.{key}", low)
    script = spec.get("script", [])
    if not isinstance(script, list) or not all(
            isinstance(item, dict) for item in script):
        raise ConfigError("adversary.script must be a list of objects")
    for i, item in enumerate(script):
        for key in ("round", "u", "v"):
            _checked(item.get(key), int, f"adversary.script[{i}].{key}")


# protocol key -> the type its value must have ("diameter" may also be "auto")
_PROTOCOL_KINDS = {"epsilon": float, "k": int, "diameter": int,
                   "count_eps": float, "delta_fail": float, "c": float,
                   "p_cap": int, "pad_cap": int, "exact_counting": bool,
                   "strict_congest": bool, "threshold_factor": float}


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
        _require_keys(protocol, set(_PROTOCOL_KINDS), {"epsilon"}, "protocol")
        duration = dict(conf["duration"])
        _require_keys(duration, {"passes", "rounds"}, set(), "duration")
        if len(duration) != 1:
            raise ConfigError("duration needs exactly one of passes/rounds")
        for key, value in duration.items():
            _checked(value, int, f"duration.{key}", 0)
        queries = conf.get("queries")
        if queries is not None:
            queries = dict(queries)
            mode = queries.get("mode")
            if mode == "per-pass":
                _require_keys(queries, {"mode", "k", "start_pass", "limit"},
                              {"mode", "k"}, "queries")
                for key, low in (("start_pass", 0), ("limit", 1)):
                    if key in queries:
                        _checked(queries[key], int, f"queries.{key}", low)
                queries = {"start_pass": 1, "limit": math.inf, **queries}
            elif mode == "at-rounds":
                _require_keys(queries, {"mode", "rounds", "k"},
                              {"mode", "rounds", "k"}, "queries")
                if not isinstance(queries["rounds"], list):
                    raise ConfigError("queries.rounds must be a list")
                for r in queries["rounds"]:
                    _checked(r, int, "queries.rounds", 0)
            else:
                raise ConfigError(f"unknown query mode {mode!r}")
            _checked(queries["k"], int, "queries.k", 0)
        if conf.get("adversary"):
            _check_adversary(conf["adversary"])
        report = dict(conf.get("report") or {})
        _require_keys(report, {"emit_log", "out"}, set(), "report")
        return cls(raw=conf, seed=_checked(conf["seed"], int, "seed", 0),
                   graph_spec=dict(conf["graph"]),
                   adversary_spec=(dict(conf["adversary"])
                                   if conf.get("adversary") else None),
                   protocol_spec=protocol, duration=duration, queries=queries,
                   report=report)

    @property
    def churn_rate(self) -> int:
        return self.adversary_spec.get("rate", 0) if self.adversary_spec else 0

    def build(self) -> tuple[BuiltGraph, ProtocolParams]:
        pspec = dict(self.protocol_spec)
        diameter = pspec.pop("diameter", "auto")
        pspec = {key: _checked(value, _PROTOCOL_KINDS[key], f"protocol.{key}")
                 for key, value in pspec.items()}
        built = build_graph(self.graph_spec, self.seed)
        n = built.graph.node_count
        # the hub-star hint holds only while no edit can cut a hub edge;
        # a script is not checked against the protected edges
        spec = self.adversary_spec
        hub_kept = not self.churn_rate or (
            spec["kind"] != "scripted"
            and spec.get("protect", "backbone") == "backbone")
        if diameter != "auto":
            diameter = _checked(diameter, int, "protocol.diameter")
        elif built.diameter_hint is not None and hub_kept:
            diameter = built.diameter_hint
        elif self.churn_rate:
            raise ConfigError(
                "under churn, supply an explicit diameter bound or use a "
                "hub-star planted graph whose backbone the adversary protects")
        else:
            d = static_diameter(built.graph)
            if d == float("inf"):
                raise ConfigError(
                    "auto diameter needs a connected initial graph")
            diameter = max(1, int(d))
        params = params_for(n, diameter=diameter, **pspec)
        if params.k > n:
            raise ConfigError(f"protocol.k={params.k} exceeds n={n}")
        if self.queries and self.queries["k"] > n:
            raise ConfigError(f"queries.k={self.queries['k']} exceeds n={n}")
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
