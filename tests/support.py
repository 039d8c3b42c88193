"""Test apparatus kept out of the package (pytest puts this directory on
``sys.path``): one counting window on every node through the production
pipeline, the trace-reach oracle of the dynamic diameter, and a runner for
the scripts."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace
from typing import Collection, Sequence

from densetrack.counting import CountPipeline
from densetrack.graph import DynamicGraph, Edge
from densetrack.netsim import World
from densetrack.protocol import ProtocolNode

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
        trace.append(graph.snapshot())
        world.run_round()
    return trace


def run_script(name: str, *args, cwd) -> subprocess.CompletedProcess:
    """Run ``scripts/<name>`` with this interpreter and the package source
    on the path."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *map(str, args)],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300)
