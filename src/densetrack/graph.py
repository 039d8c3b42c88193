"""Evolving undirected simple graphs with budgeted adversarial edge churn.

Node ids are dense integers ``0..n-1`` (external labels are remapped at
ingestion).  The node set is fixed for the lifetime of a graph; only edges
change, at most ``churn_rate`` edits per round.  Verification-facing density
values are exact :class:`fractions.Fraction`; the simulation layer keeps its
own float estimates elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import (ChurnBudgetExceeded, ConfigError, EmptySubset,
                     InvalidEdit, read_text)

Edge = tuple[int, int]
Edit = tuple[str, int, int]  # ("add" | "remove", u, v)

ADD = "add"
REMOVE = "remove"

def edge_key(u: int, v: int) -> Edge:
    """Canonical (low, high) form of an undirected edge."""
    if u == v:
        raise InvalidEdit(f"self-loop on node {u}")
    return (u, v) if u < v else (v, u)


@dataclass
class DynamicGraph:
    """Time-indexed undirected simple graph over a fixed node set."""

    node_count: int
    churn_rate: int = 0
    time: int = 0
    adj: list[set[int]] = field(default_factory=list)
    edge_count: int = 0
    # this state's sorted arcs once read (arcs())
    _arcs: Arcs | None = field(default=None, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        if self.node_count < 1:
            raise ConfigError("node_count must be positive")
        if self.churn_rate < 0:
            raise ConfigError("churn_rate must be non-negative")
        if not self.adj:
            self.adj = [set() for _ in range(self.node_count)]

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[Edge],
                   churn_rate: int = 0) -> "DynamicGraph":
        g = cls(node_count=node_count, churn_rate=churn_rate)
        for u, v in edges:
            g._insert(u, v)
        return g

    def copy(self) -> "DynamicGraph":
        """An independent graph in this state.  It starts without arcs: a
        shared :class:`Arcs` would be patched by the copy's churn."""
        return DynamicGraph(self.node_count, self.churn_rate, self.time,
                            [set(s) for s in self.adj], self.edge_count)

    # -- queries -----------------------------------------------------------

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self.node_count):
            raise InvalidEdit(f"node {u} outside 0..{self.node_count - 1}")

    def has_edge(self, u: int, v: int) -> bool:
        a, b = edge_key(u, v)
        return b in self.adj[a]

    def edges(self) -> list[Edge]:
        """Sorted list of canonical edges (deterministic iteration order)."""
        return sorted((u, v) for u in range(self.node_count)
                      for v in self.adj[u] if u < v)

    def arcs(self) -> Arcs:
        """This state's sorted arcs: built on first read, then patched by
        each :meth:`apply_churn`, so every reader shares one."""
        if self._arcs is None:
            self._arcs = Arcs(self)
        return self._arcs

    # -- mutation ----------------------------------------------------------

    def _insert(self, u: int, v: int) -> None:
        self._check_node(u), self._check_node(v)
        a, b = edge_key(u, v)
        if b in self.adj[a]:
            raise InvalidEdit(f"edge ({a},{b}) already present")
        self.adj[a].add(b)
        self.adj[b].add(a)
        self.edge_count += 1

    def _delete(self, u: int, v: int) -> None:
        self._check_node(u), self._check_node(v)
        a, b = edge_key(u, v)
        if b not in self.adj[a]:
            raise InvalidEdit(f"edge ({a},{b}) not present")
        self.adj[a].remove(b)
        self.adj[b].remove(a)
        self.edge_count -= 1

    def apply_churn(self, batch: Sequence[Edit]) -> "DynamicGraph":
        """Apply one round's edit batch and advance the round counter.

        Edits are applied sequentially; the whole batch is rolled back if any
        edit is invalid, so a failed call leaves the graph untouched.  The
        arcs, if read, are patched once the whole batch has applied.
        """
        if len(batch) > self.churn_rate:
            raise ChurnBudgetExceeded(
                f"{len(batch)} edits exceed churn budget {self.churn_rate}")
        applied: list[Edit] = []
        try:
            for op, u, v in batch:
                if op == ADD:
                    self._insert(u, v)
                elif op == REMOVE:
                    self._delete(u, v)
                else:
                    raise InvalidEdit(f"unknown op {op!r}")
                applied.append((op, u, v))
        except InvalidEdit:
            for op, u, v in reversed(applied):
                (self._delete if op == ADD else self._insert)(u, v)
            raise
        if batch and self._arcs is not None:
            self._arcs.patch(batch)
        self.time += 1
        return self


class Arcs:
    """Both arcs of every edge of one graph state, sorted by (tail, head):
    vertex v's neighbours, ascending, are ``heads[ends[v] - degrees[v]:
    ends[v]]``, and ``tails`` is derived when read.  :meth:`patch` binds
    new arrays and writes none, so whoever read the old ones keeps them.
    A graph owns one (:meth:`DynamicGraph.arcs`) and patches it from each
    batch; the engine, the adversaries' edge pools and core refreshes and
    the oracle all read that one."""

    __slots__ = ("heads", "degrees", "ends")

    def __init__(self, g: DynamicGraph):
        n = g.node_count
        self.degrees = np.fromiter(map(len, g.adj), np.int64, n)
        self.ends = np.cumsum(self.degrees)
        tails = np.repeat(np.arange(n), self.degrees)
        # each tail's heads sorted in one sort of row-major keys
        keys = tails * n + np.fromiter(chain.from_iterable(g.adj), np.int64,
                                       len(tails))
        keys.sort()
        self.heads = keys - tails * n

    @property
    def tails(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.degrees)), self.degrees)

    def patch(self, batch: Sequence[Edit]) -> None:
        """Advance to the state that ``batch``, valid for this one, leaves;
        ``apply_churn`` calls it once the whole batch has applied."""
        net: dict[Edge, int] = {}  # +1 added, -1 removed, 0 both
        for op, u, v in batch:
            e = edge_key(u, v)
            net[e] = net.get(e, 0) + (1 if op == ADD else -1)
        heads, ends, degrees = self.heads, self.ends, self.degrees.copy()
        pieces, kept = [], 0  # heads[:kept] are in pieces
        for a, b, d in sorted((a, b, d) for (u, v), d in net.items() if d
                              for a, b in ((u, v), (v, u))):
            # the arc's index, or where it goes, in the old (tail, head) order
            start = ends[a] - self.degrees[a]
            at = int(start + heads[start:ends[a]].searchsorted(b))
            pieces.append(heads[kept:at])
            if d > 0:
                pieces.append([b])
            kept = at + (d < 0)
            degrees[a] += d
        if pieces:
            self.heads = np.concatenate(pieces + [heads[kept:]])
            self.degrees, self.ends = degrees, np.cumsum(degrees)


# -- induced density ---------------------------------------------------------


@dataclass(frozen=True)
class SubsetDensity:
    """Exact density record for the subgraph induced by ``members``."""

    members: frozenset[int]
    edge_count: int
    density: Fraction


def induced_edge_count(g: DynamicGraph, members: Iterable[int]) -> int:
    s = set(members)
    return sum(len(g.adj[u] & s) for u in s) // 2


def induced_density(g: DynamicGraph, members: Iterable[int]) -> SubsetDensity:
    """Exact rational density |E(S)|/|S| of the induced subgraph."""
    s = frozenset(members)
    if not s:
        raise EmptySubset("density of the empty set is undefined")
    for u in s:
        if not (0 <= u < g.node_count):
            raise InvalidEdit(f"node {u} outside graph")
    m = induced_edge_count(g, s)
    return SubsetDensity(s, m, Fraction(m, len(s)))


# -- diameters ----------------------------------------------------------------


def static_diameter(g: DynamicGraph) -> int | float:
    """Largest hop eccentricity; ``inf`` when disconnected.

    Bit-parallel BFS from every node at once: node u's Python-int bitset
    holds the nodes within the current radius of u.  Each sweep ORs its
    neighbours' sets into it, growing the radius by one.  The diameter is
    the number of sweeps until every set is full (0 for one node); a sweep
    that changes nothing means the graph is disconnected.
    """
    full = (1 << g.node_count) - 1
    reach = [1 << u for u in range(g.node_count)]
    sweeps = 0
    while any(r != full for r in reach):
        grown = []
        for r, nbrs in zip(reach, g.adj):
            for v in nbrs:
                r |= reach[v]
            grown.append(r)
        if grown == reach:
            return math.inf
        reach, sweeps = grown, sweeps + 1
    return sweeps


# -- edge-list ingestion -------------------------------------------------------


def parse_edge_list(text: str, node_count: int | None = None
                    ) -> tuple[DynamicGraph, dict[int, int]]:
    """Parse ``u v`` pairs (one per line, ``#`` comments) into a graph.

    Arbitrary integer labels are remapped onto dense ids ``0..n-1`` in sorted
    label order; the returned dict maps original label -> dense id.  When
    ``node_count`` is given and all labels already lie in ``0..node_count-1``
    the identity mapping is kept (allowing isolated trailing nodes).
    """
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise InvalidEdit(f"line {lineno}: expected integer labels "
                              f"'u v', got {raw!r}") from None
        pairs.append((u, v))
    labels = sorted({x for p in pairs for x in p})
    if node_count is not None and all(0 <= x < node_count for x in labels):
        mapping = {x: x for x in labels}
        n = node_count
    else:
        mapping = {x: i for i, x in enumerate(labels)}
        n = node_count if node_count is not None else max(len(labels), 1)
        if len(labels) > n:
            raise InvalidEdit(f"{len(labels)} labels exceed node_count {n}")
    edges = []
    seen = set()
    for u, v in pairs:
        e = edge_key(mapping[u], mapping[v])
        if e in seen:
            raise InvalidEdit(f"duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    return DynamicGraph.from_edges(n, edges), mapping


def load_edge_list(path: str, node_count: int | None = None
                   ) -> tuple[DynamicGraph, dict[int, int]]:
    return parse_edge_list(read_text(path, "edge list"), node_count)
