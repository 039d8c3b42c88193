"""Test apparatus kept out of the package (pytest puts this directory on
``sys.path``): one counting window on every node through the production
pipeline, the edge-count sampler, the trace-reach oracle of the dynamic
diameter, the per-draw graph builders the production ones must match, the
per-message bandwidth ledger the per-group one must match, the oracle
cache's first graph hash, a comparable form of sorted arcs, a count of
their builds and a runner for the scripts."""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace
from typing import Collection, Sequence

import numpy as np

from densetrack.counting import (CountPipeline, TuplePart,
                                 sample_fine_estimates)
from densetrack.errors import ConfigError
from densetrack.graph import Arcs, DynamicGraph, Edge, edge_key
from densetrack.netsim import BandwidthLedger, RoundMessage, TagStats, World
from densetrack.protocol import FlagsPart, ProtocolNode
from densetrack.scenarios import BuiltGraph

REPO = Path(__file__).resolve().parent.parent


# each node's total and coarse estimate, the round the last node closed in
# and the world that ran the window
Window = namedtuple("Window", "estimates coarse rounds world")


class _WindowNode:
    """Runs one counting window, then idles.  Its inbox goes through the
    production dispatch, ``ProtocolNode._absorb``, which reads only
    ``count`` and ``query_count`` here: a window sends no flag parts."""

    query_count = SimpleNamespace(stage=None)
    _absorb = ProtocolNode._absorb

    def __init__(self, count: CountPipeline, member: bool,
                 degree: int | None):
        self.count = count
        self.member = member
        self.degree = degree
        self.total: float | None = None

    def step(self, ctx):
        count = self.count
        if count.stage is None:
            if self.total is not None:
                return None
            count.start(("cnt.c", "cnt.f"), ctx.round, ctx.rng, self.member,
                        self.degree)
        else:
            self._absorb(ctx)
            self.total = count.step(ctx.round, ctx.rng)
            if self.total is not None:
                return None
        part = count.stage.emit()
        return [part] if part else None


def count_window(graph: DynamicGraph, members: set[int], diameter: int, *,
                 degrees: dict[int, int] | None = None, exact: bool = False,
                 strict: bool = False, adversary=None, seed: int = 0,
                 **estimator_kw) -> Window:
    """Count ``members`` in one window of ``2 * diameter`` rounds from round
    0 (``(l_geo + l_exp) * diameter`` in strict mode); with ``degrees``
    (see :func:`member_degrees`) count edges instead.  ``estimator_kw`` sets
    ``delta_fail`` (default 0.01), ``epsilon`` (0.3) and ``c`` (1.0)."""
    kw = {"delta_fail": 0.01, "epsilon": 0.3, "c": 1.0, **estimator_kw}
    nodes = [_WindowNode(
        CountPipeline(i, graph.node_count, diameter, exact=exact,
                      strict=strict, **kw),
        i in members, None if degrees is None else degrees[i])
        for i in range(graph.node_count)]
    world = World(graph, nodes, seed=seed, adversary=adversary)
    while any(node.total is None for node in nodes):
        world.run_round()
    return Window([node.total for node in nodes],
                  [node.count.coarse for node in nodes], world.round - 1, world)


def member_degrees(graph: DynamicGraph, members: set[int]) -> dict[int, int]:
    """Each node's degree inside ``members`` on the current topology, 0
    outside it."""
    return {u: len(graph.adj[u] & members) if u in members else 0
            for u in range(graph.node_count)}


def sample_edge_estimates(rng: np.random.Generator, degree_sum: int,
                          epsilon: float, trials: int, c: float = 1.0,
                          delta_fail: float = 0.01) -> np.ndarray:
    """Edge-count estimates, i.e. the fine pipeline over ``degree_sum``
    simulated members, halved."""
    return sample_fine_estimates(rng, degree_sum, epsilon, trials, c,
                                 delta_fail=delta_fail) / 2.0


def measure_dynamic_diameter(trace: Sequence[Collection[Edge]],
                             node_count: int) -> int | float:
    """Smallest D such that a flood launched anywhere covers within D rounds.

    ``trace[t]`` is the edge set in force during round ``t``: a message
    broadcast in round ``t`` crosses those edges and lands at ``t + 1``.  For
    every launch time ``s`` the cover time ``c(s)`` is the number of rounds
    until floods from all sources reach every node; launches that the trace
    truncates before coverage are skipped.  Returns ``inf`` when no launch
    window completes (some pair stays unreachable over the whole trace).
    """
    full = (1 << node_count) - 1
    covers = []
    for s in range(len(trace)):
        holders = [1 << v for v in range(node_count)]
        for t in range(s, len(trace)):
            nxt = list(holders)
            for u, v in trace[t]:
                nxt[u] |= holders[v]
                nxt[v] |= holders[u]
            holders = nxt
            if all(h == full for h in holders):
                covers.append(t - s + 1)
                break
    return max(covers, default=math.inf)


def round_start_edges(graph: DynamicGraph, adversary,
                      rounds: int) -> list[frozenset[Edge]]:
    """The edge set in force during each of ``rounds`` rounds of a run whose
    nodes send nothing: the trace :func:`measure_dynamic_diameter` reads."""
    idle = SimpleNamespace(step=lambda ctx: None)
    world = World(graph, [idle] * graph.node_count, seed=0,
                  adversary=adversary)
    trace = []
    for _ in range(rounds):
        trace.append(frozenset(graph.edges()))
        world.run_round()
    return trace


# -- reference graph builders --------------------------------------------------
# The builders as they were before their draws were batched: one generator
# call per pair or swap attempt.  ``densetrack.scenarios``'s builders must
# give the same graph and leave the generator in the same state.


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


# -- reference bandwidth ledger ------------------------------------------------
# The ledger as it was before the engine metered a round's parts per group:
# one ``record_broadcast`` per message and one bit count per part, by each
# kind's formula on one tuple.  ``World``'s ledger must give the same summary.

_TOSS_BITS = np.array([max(1, v.bit_length()) for v in range(256)])

PART_BITS = {
    "geo": lambda v, _: int(_TOSS_BITS[v].sum()),
    "exp": lambda v, _: 64 * v.size,
    "ids": lambda v, id_bits: int(np.bitwise_count(v).sum()) * id_bits,
    "degs": lambda v, id_bits: int((v >= 0).sum()) * 2 * id_bits,
}


def part_bit_size(part) -> int:
    """One tuple, coordinate or flags part's bits."""
    if isinstance(part, FlagsPart):
        return int(part.values.sum())
    id_bits = part.id_bits if isinstance(part, TuplePart) else 0
    return PART_BITS[part.kind](part.values, id_bits)


class ReferenceLedger:
    summary = BandwidthLedger.summary

    def __init__(self) -> None:
        self.per_tag: dict[str, TagStats] = {}
        self.global_max_bits = 0
        self.total_bits = 0
        self.total_deliveries = 0

    def record_broadcast(self, msg: RoundMessage, copies: int) -> int:
        """Meter one broadcast sent to ``copies`` neighbors; returns its
        bit size."""
        total = 0
        for part in msg.parts:
            bits = part_bit_size(part)
            total += bits
            st = self.per_tag.setdefault(part.tag, TagStats())
            st.max_bits = max(st.max_bits, bits)
            st.total_bits += bits * copies
            st.messages += copies
        self.global_max_bits = max(self.global_max_bits, total)
        self.total_bits += total * copies
        self.total_deliveries += copies
        return total


def edge_list_content_hash(g: DynamicGraph) -> str:
    """The oracle cache's graph hash from the sorted edge list, as it was
    first written: the production hash must keep its bytes, so that cache
    directories written before still hit."""
    h = hashlib.sha256(f"{g.node_count}|".encode())
    h.update(np.asarray(g.edges(), dtype=np.int64).tobytes())
    return h.hexdigest()


def arcs_state(arcs: Arcs) -> tuple:
    """Everything an :class:`Arcs` holds, as lists, with the heads' dtype:
    two arcs describe one state when these are equal."""
    return (arcs.heads.tolist(), arcs.heads.dtype, arcs.degrees.tolist(),
            arcs.ends.tolist(), arcs.tails.tolist())


def arcs_builds(monkeypatch) -> list:
    """The list that gets one entry per :class:`Arcs` built, under any name
    a module imported it by."""
    builds = []
    init = Arcs.__init__

    def counted(self, g):
        builds.append(1)
        init(self, g)

    monkeypatch.setattr(Arcs, "__init__", counted)
    return builds


def run_script(name: str, *args, cwd) -> subprocess.CompletedProcess:
    """Run ``scripts/<name>`` with this interpreter and the package source
    on the path."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *map(str, args)],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300)
