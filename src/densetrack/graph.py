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
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import ChurnBudgetExceeded, ConfigError, EmptySubset, InvalidEdit

Edge = tuple[int, int]
Edit = tuple[str, int, int]  # ("add" | "remove", u, v)

ADD = "add"
REMOVE = "remove"

INFINITE_DIAMETER = math.inf


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

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be positive")
        if self.churn_rate < 0:
            raise ValueError("churn_rate must be non-negative")
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
        return DynamicGraph(self.node_count, self.churn_rate, self.time,
                            [set(s) for s in self.adj], self.edge_count)

    # -- queries -----------------------------------------------------------

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self.node_count):
            raise InvalidEdit(f"node {u} outside 0..{self.node_count - 1}")

    def has_edge(self, u: int, v: int) -> bool:
        a, b = edge_key(u, v)
        return b in self.adj[a]

    def neighbors(self, u: int) -> set[int]:
        return self.adj[u]

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def edges(self) -> list[Edge]:
        """Sorted list of canonical edges (deterministic iteration order)."""
        return sorted((u, v) for u in range(self.node_count)
                      for v in self.adj[u] if u < v)

    def snapshot(self) -> frozenset[Edge]:
        return frozenset((u, v) for u in range(self.node_count)
                         for v in self.adj[u] if u < v)

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
        edit is invalid, so a failed call leaves the graph untouched.
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
        self.time += 1
        return self


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
    """Largest hop eccentricity; ``inf`` when disconnected."""
    n = g.node_count
    edges = np.array(g.edges(), dtype=np.int64).reshape(-1, 2)
    adj = csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                     shape=(n, n))
    worst = shortest_path(adj, directed=False, unweighted=True).max()
    return INFINITE_DIAMETER if math.isinf(worst) else int(worst)


def measure_dynamic_diameter(trace: Sequence[Iterable[Edge]],
                             node_count: int) -> int | float:
    """Smallest D such that a flood launched anywhere covers within D rounds.

    ``trace[t]`` is the edge set in force during round ``t``: a message
    broadcast in round ``t`` crosses those edges and lands at ``t + 1``.  For
    every launch time ``s`` the cover time ``c(s)`` is the number of rounds
    until floods from all sources reach every node; launches that the trace
    truncates before coverage are skipped.  Returns ``inf`` when no launch
    window completes (some pair stays unreachable over the whole trace).
    """
    n = node_count
    snapshots = [list(e) for e in trace]
    if n == 1:
        return 1 if snapshots else INFINITE_DIAMETER
    full = (1 << n) - 1
    best = 0
    any_complete = False
    for s in range(len(snapshots)):
        holders = [1 << v for v in range(n)]
        for t in range(s, len(snapshots)):
            nxt = list(holders)
            for u, v in snapshots[t]:
                nxt[u] |= holders[v]
                nxt[v] |= holders[u]
            holders = nxt
            if all(h == full for h in holders):
                best = max(best, t - s + 1)
                any_complete = True
                break
    if not any_complete:
        return INFINITE_DIAMETER
    return max(best, 1)


# -- edge-list ingestion -------------------------------------------------------


def parse_edge_list(text: str, node_count: int | None = None,
                    churn_rate: int = 0) -> tuple[DynamicGraph, dict[int, int]]:
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
        fields = line.split()
        if len(fields) != 2:
            raise InvalidEdit(f"line {lineno}: expected 'u v', got {raw!r}")
        pairs.append((int(fields[0]), int(fields[1])))
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
    return DynamicGraph.from_edges(n, edges, churn_rate=churn_rate), mapping


def load_edge_list(path: str, node_count: int | None = None,
                   churn_rate: int = 0) -> tuple[DynamicGraph, dict[int, int]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise ConfigError(f"cannot read edge list {path}: {reason}") from exc
    return parse_edge_list(text, node_count, churn_rate)
