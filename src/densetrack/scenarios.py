"""Scenario configuration: the checked config schema, seeded graph
builders, and a solver that sizes planted-dense instances to clear the
density precondition with margin.

A config is a JSON object whose sections are JSON objects (``adversary``
and ``queries`` may also be null).  One table per section gives each
key's type or allowed values, its default and its bounds; all are below
but the protocol section's, :data:`~densetrack.protocol.PROTOCOL_KEYS`.  An
unknown, missing, wrong-typed or out-of-range key is a ConfigError naming
its key path.
``report.emit_log`` is a boolean (default false); ``report.out`` is a
directory path string or null (default null: no report files, and an event
log goes to the working directory).

Every query waits in one queue in round order, duplicates included (a
per-pass query is due when its pass closes; ``start_pass`` defaults to 1,
``limit`` to none): each fires at the first round at or after its own in
which no other query is active, and its ``round_fired`` is the round it
actually fired.  ``queries.k`` is the query size; ``protocol.k`` is only
range-checked, to [0, n].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import (Adversary, RandomChurnAdversary, ScriptedAdversary,
                        TargetedAdversary)
from .errors import (_ABSENT, _REQUIRED, ConfigError, InfeasibleScenario,
                     _checked, _Key)
from .graph import (ADD, REMOVE, DynamicGraph, Edge, edge_key, load_edge_list,
                    static_diameter)
from .protocol import PROTOCOL_KEYS, ProtocolParams, params_for


@dataclass(frozen=True)
class _Variants:
    """A section whose ``key`` names the table of its other keys."""
    key: str
    tables: dict


def _section(d, fields: dict, where: str) -> dict:
    """``d`` checked against the table ``fields``: a JSON object with no
    unknown or missing key, each value converted by :func:`_value` and each
    absent key given its default.  ``where`` is the key path, empty at the
    top level."""
    name = where or "config"
    if not isinstance(d, dict):
        raise ConfigError(f"{name} must be a JSON object, got {d!r}")
    for what, keys in (("unknown", set(d) - set(fields)),
                       ("missing", {key for key, f in fields.items()
                                    if f.default is _REQUIRED} - set(d))):
        if keys:
            raise ConfigError(f"{name}: {what} keys {sorted(keys, key=str)}")
    out = {}
    for key, (kind, default, *bounds) in fields.items():
        path = f"{where}.{key}".lstrip(".")
        if key in d:
            out[key] = _value(d[key], kind, path, *bounds)
        elif isinstance(kind, dict):  # an absent section is an empty one
            out[key] = _section({}, kind, path)
        elif default is not _ABSENT:
            out[key] = default
    return out


def _value(x, kind, where: str, *bounds):
    """``x`` checked against ``kind``: a type (see :func:`_checked`, which
    takes the ``bounds``), a table (see :func:`_section`),
    :class:`_Variants`, a one-item list (a JSON list of that kind) or a
    tuple of allowed strings or null plus at most one other kind."""
    if isinstance(kind, _Variants):
        name = x.get(kind.key) if isinstance(x, dict) else None
        if isinstance(x, dict) and name not in list(kind.tables):
            raise ConfigError(f"unknown {where} {kind.key} {name!r}")
        return _section(x, {kind.key: _Key(str), **kind.tables.get(name, {})},
                        where)
    if isinstance(kind, dict):
        return _section(x, kind, where)
    if isinstance(kind, list):
        if not isinstance(x, list):
            raise ConfigError(f"{where} must be a list, got {x!r}")
        return [_value(v, kind[0], f"{where}[{i}]", *bounds)
                for i, v in enumerate(x)]
    if isinstance(kind, tuple):
        if (x is None or isinstance(x, str)) and x in kind:
            return x
        rest = [k for k in kind if not (k is None or isinstance(k, str))]
        if not rest:
            raise ConfigError(f"{where} must be one of {kind}, got {x!r}")
        return _value(x, rest[0], where, *bounds)
    return _checked(x, kind, where, *bounds)


# -- graph builders --------------------------------------------------------------


# swap-index pairs drawn per call in build_regular
SWAP_BLOCK = 4096


@dataclass
class BuiltGraph:
    graph: DynamicGraph
    protected: frozenset[Edge]
    diameter_hint: int | None  # structural bound valid under churn, if any


def build_gnp(rng: np.random.Generator, n: int, p: float) -> BuiltGraph:
    """G(n, p): one ``rng.random`` double per pair ``(i, j > i)``, in row
    order, drawn one row at a time; the pair is an edge when its double is
    below ``p``."""
    edges = []
    for i in range(n - 1):
        hits = np.flatnonzero(rng.random(n - i - 1) < p) + (i + 1)
        edges += [(i, j) for j in hits.tolist()]
    return BuiltGraph(DynamicGraph.from_edges(n, edges), frozenset(), None)


def build_regular(rng: np.random.Generator, n: int, d: int) -> BuiltGraph:
    """Random d-regular graph: circulant base plus double-edge swaps.

    The m base edges, sorted, get 10 * m swap attempts.  Each draws an index
    pair ``(i, j)`` below m; the draws come in blocks of ``SWAP_BLOCK``
    pairs from ``rng.integers(m, size=(block, 2))``, which gives the same
    numbers, and leaves the generator in the same state, as one
    ``size=2`` call per attempt.  An attempt swaps edges ``(a, b)`` and
    ``(c, e)`` for ``(a, c)`` and ``(b, e)`` when the four ends differ and
    neither new edge exists."""
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
    m = len(edge_list)
    for start in range(0, 10 * m, SWAP_BLOCK):
        block = rng.integers(m, size=(min(SWAP_BLOCK, 10 * m - start), 2))
        for i, j in block.tolist():
            (a, b), (c, e) = edge_list[i], edge_list[j]
            if len({a, b, c, e}) < 4:
                continue
            new1, new2 = edge_key(a, c), edge_key(b, e)
            if new1 in edges or new2 in edges:
                continue
            edges.discard((a, b)), edges.discard((c, e))
            edges.add(new1), edges.add(new2)
            edge_list[i], edge_list[j] = new1, new2
    return BuiltGraph(DynamicGraph.from_edges(n, sorted(edges)),
                      frozenset(), None)


def build_planted(rng: np.random.Generator, n: int, clique: int,
                  noise_p: float, hub_star: bool = True) -> BuiltGraph:
    """Clique on nodes 0..clique-1 plus sparse noise.

    With ``hub_star`` every node keeps a protected edge to node 0, which
    pins the dynamic diameter at 2 no matter what the adversary does to the
    unprotected edges.

    Noise is one ``rng.random`` double per candidate pair ``(i, j)`` with
    ``j >= max(i + 1, clique)``, in row order, drawn one row at a time; the
    pair is an edge when its double is below ``noise_p``.  With
    ``hub_star`` row 0 draws nothing: its candidates are all hub edges.
    """
    if not (1 <= clique <= n):
        raise ConfigError("clique size out of range")
    edges = {(i, j) for i in range(clique) for j in range(i + 1, clique)}
    protected: set[Edge] = set()
    if hub_star:
        for v in range(1, n):
            edges.add((0, v))
            protected.add((0, v))
    for i in range(1 if hub_star else 0, n):
        low = max(i + 1, clique)
        hits = np.flatnonzero(rng.random(n - low) < noise_p) + low
        edges.update((i, j) for j in hits.tolist())
    g = DynamicGraph.from_edges(n, sorted(edges))
    hint = 2 if hub_star and n > 1 else None
    return BuiltGraph(g, frozenset(protected), hint)


def build_clique_plus_noise(rng: np.random.Generator, n: int, clique: int,
                            extra_edges: int) -> BuiltGraph:
    if not (1 <= clique <= n):
        raise ConfigError("clique size out of range")
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


# -- config schema: one table per section ----------------------------------

_PROBABILITY = _Key(float, low=0, high=1)
_GRAPH = _Variants("kind", {
    "gnp": {"n": _Key(int, low=1), "p": _PROBABILITY},
    "regular": {"n": _Key(int, low=1), "d": _Key(int, low=0)},
    "planted-dense": {"n": _Key(int, low=1), "clique": _Key(int),
                      "noise_p": _PROBABILITY, "hub_star": _Key(bool, _ABSENT)},
    "clique-plus-noise": {"n": _Key(int, low=1), "clique": _Key(int),
                          "extra_edges": _Key(int, low=0)},
    "edge-list": {"path": _Key(str), "n": _Key(int, _ABSENT, 1)},
})
_RATE = _Key(int, 0, 0)
_PROTECT = _Key(("backbone", "none"), "backbone")
_SCRIPT_ITEM = {"round": _Key(int, low=0), "op": _Key((ADD, REMOVE)),
                "u": _Key(int), "v": _Key(int)}
_ADVERSARY = _Variants("kind", {
    "scripted": {"rate": _RATE, "script": _Key([_SCRIPT_ITEM], ())},
    "random-churn": {"rate": _RATE, "protect": _PROTECT,
                     "mode": _Key(("balanced", "uniform"), _ABSENT)},
    "targeted-attack-on-dense-core": {
        "rate": _RATE, "protect": _PROTECT,
        "refresh_every": _Key(int, _ABSENT, 1),
        "bias": _Key(float, _ABSENT, 0, 1)},
})
_DURATION = {"passes": _Key(int, None, 0), "rounds": _Key(int, None, 0)}
_QUERIES = _Variants("mode", {
    "per-pass": {"k": _Key(int, low=0), "start_pass": _Key(int, 1, 0),
                 "limit": _Key(int, math.inf, 1)},
    "at-rounds": {"k": _Key(int, low=0), "rounds": _Key([int], low=0)},
})
_REPORT = {"emit_log": _Key(bool, False), "out": _Key((None, str), None)}
_CONFIG = {"seed": _Key(int, low=0), "graph": _Key(_GRAPH),
           "adversary": _Key((None, _ADVERSARY), None),
           "protocol": _Key(PROTOCOL_KEYS), "duration": _Key(_DURATION),
           "queries": _Key((None, _QUERIES), None),
           "report": _Key(_REPORT, {})}

_BUILDERS = {"gnp": build_gnp, "regular": build_regular,
             "planted-dense": build_planted,
             "clique-plus-noise": build_clique_plus_noise}


def build_graph(spec: dict, seed: int) -> BuiltGraph:
    """The seeded graph of a graph section, raw or already checked (a
    checked section passes the check unchanged)."""
    spec = _value(spec, _GRAPH, "graph")
    kind = spec.pop("kind")
    if kind == "edge-list":
        g, _ = load_edge_list(spec["path"], node_count=spec.get("n"))
        return BuiltGraph(g, frozenset(), None)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x67))))
    return _BUILDERS[kind](rng, **spec)


def adversary_from_spec(spec: dict | None, graph: DynamicGraph, seed: int,
                        protected: frozenset[Edge]) -> Adversary:
    """The runtime adversary of a checked adversary section."""
    if spec is None:
        return Adversary()
    fields = dict(spec)
    kind = fields.pop("kind")
    if kind == "scripted":
        return ScriptedAdversary.load(fields["script"], graph, fields["rate"])
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, 0xAD))))
    if fields.pop("protect") == "none":
        protected = frozenset()
    cls = RandomChurnAdversary if kind == "random-churn" else TargetedAdversary
    return cls(rng=rng, protected=protected, **fields)


# -- scenario config --------------------------------------------------------------


@dataclass
class ScenarioConfig:
    """A config's checked sections, and ``raw``, the config as given."""
    raw: dict
    seed: int
    graph: dict
    adversary: dict | None
    protocol: dict
    duration: dict
    queries: dict | None
    report: dict

    @classmethod
    def from_dict(cls, conf: dict) -> "ScenarioConfig":
        config = cls(raw=conf, **_section(conf, _CONFIG, ""))
        if sum(v is not None for v in config.duration.values()) != 1:
            raise ConfigError("duration needs exactly one of passes/rounds")
        return config

    @property
    def churn_rate(self) -> int:
        return self.adversary["rate"] if self.adversary else 0

    def build(self) -> tuple[BuiltGraph, ProtocolParams]:
        pspec = dict(self.protocol)
        diameter, k = pspec.pop("diameter"), pspec.pop("k")
        built = build_graph(self.graph, self.seed)
        n = built.graph.node_count
        if diameter == "auto":
            # the hub-star hint holds only while no edit can cut a hub edge;
            # a script is not checked against the protected edges
            spec = self.adversary
            hub_kept = not self.churn_rate or (
                spec["kind"] != "scripted" and spec["protect"] == "backbone")
            if built.diameter_hint is not None and hub_kept:
                diameter = built.diameter_hint
            elif self.churn_rate:
                raise ConfigError(
                    "under churn, supply an explicit diameter bound or use a "
                    "hub-star planted graph whose backbone the adversary "
                    "protects")
            else:
                d = static_diameter(built.graph)
                if d == float("inf"):
                    raise ConfigError(
                        "auto diameter needs a connected initial graph")
                diameter = max(1, int(d))
        params = params_for(n, diameter=diameter, **pspec)
        if k > n:
            raise ConfigError(f"protocol.k={k} exceeds n={n}")
        if self.queries and self.queries["k"] > n:
            raise ConfigError(f"queries.k={self.queries['k']} exceeds n={n}")
        return built, params


_SWEEP_GRID = {
    "epsilon": PROTOCOL_KEYS["epsilon"]._replace(kind=[float], default=[1.0]),
    "rate": _Key([int], [0], 0), "n": _Key([int], [60])}


def sweep_grid(grid) -> dict:
    """The checked epsilon, rate and n lists of a sweep grid."""
    return _section(grid, _SWEEP_GRID, "grid")


def solve_planted_scenario(*, n: int, k: int, rate: int, epsilon: float = 1.0,
                           seed: int = 0, passes: int = 20) -> dict:
    """Size the planted clique so the at-least-k optimum clears the density
    precondition ``24*T*rate / (k*epsilon)`` twice over, with noise 0.02.

    The hub-star construction pins D = 2 and the pass structure at three
    levels (everything, clique, fixed point), so the wall length of a pass is
    ``8*D + 2 = 18`` rounds; the clique is sized against that bound and the
    construction raises when no feasible clique fits inside ``n``.
    """
    diameter = 2
    # ProtocolParams range-checks epsilon before anything divides by it
    delta = ProtocolParams(epsilon=epsilon, diameter=diameter).delta
    t_rounds = 8 * diameter + 2
    need = 2.0 * 24.0 * t_rounds * rate / (max(k, 1) * epsilon)
    # keep the clique comfortably above (1+delta)k so the chosen level never
    # needs padding even with estimator wobble
    q_floor = max(3, int(1.1 * (1.0 + delta) * k) + 1)
    q = None
    for cand in range(q_floor, n + 1):
        if (cand - 1) / 2.0 >= need:
            q = cand
            break
    if q is None:
        raise InfeasibleScenario(
            f"no clique within n={n} clears precondition {need:.1f}; "
            f"raise n or k, or lower rate")
    return {
        "seed": seed,
        "graph": {"kind": "planted-dense", "n": n, "clique": q,
                  "noise_p": 0.02, "hub_star": True},
        "adversary": ({"kind": "random-churn", "rate": rate,
                       "mode": "balanced", "protect": "backbone"}
                      if rate else None),
        "protocol": {"epsilon": epsilon, "k": k, "diameter": 2},
        "duration": {"passes": passes},
        "queries": {"mode": "per-pass", "k": k, "start_pass": 1,
                    "limit": passes},
        "report": {},
    }
