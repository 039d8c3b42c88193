"""Ground-truth solvers run outside the simulator on graph snapshots.

* :func:`exact_densest` - globally optimal density by Dinkelbach iteration
  on Goldberg's vertex network (n + 2 nodes: the vertices, a source and a
  sink).  Start at rho = m/n as an exact ``Fraction`` p/q, or at the
  density of a given start set in the graph when that is larger: any real
  set's density is a lower bound on the optimum.  The network has
  arcs source -> v of capacity q*d_v, u -> v and v -> u of capacity q for
  every edge, and v -> sink of capacity 2p, so the cut of ``{source} | S``
  is ``q*sum(d_v, v not in S) + q*e(S, V-S) + 2p*|S|``, which equals
  ``2*q*m - 2*(q*|E(S)| - p*|S|)``.  Every cut, hence the max-flow, is
  even, and the closure value ``max_S q*|E(S)| - p*|S|`` is
  ``q*m - maxflow/2``.  While some set beats rho (closure value above 0),
  move rho to the density of the smallest maximizing set, the vertices the
  source reaches in the residual.  A closure value of 0 certifies that no
  set is denser than rho.  The answer is the largest densest subgraph (the
  union of all optimal sets, which is unique): the vertices that cannot
  reach the sink in the last residual.  From m/n that is usually two
  max-flows; from a start set that is already densest (such as the last
  core, a few edits ago) usually one.  The densities, the final check and
  the min-degree certificate (every member's induced degree d has
  ``d*q >= p``) are integer counts over the network's vertex-to-vertex
  arcs; no floating-point in the certification path.  Those arcs are a
  :class:`~densetrack.graph.Arcs`: the caller's when they describe the
  graph, as the targeted adversary's patched ones do, so that a refresh
  builds only the CSR.  scipy computes flows in int32, so a graph with
  ``2*n*m >= 2**31`` is refused before any network is built.
* :func:`exact_at_least_k` - exhaustive enumeration over all subsets of size
  at least k (bounded to n <= 20, about a million subsets).
* :func:`peel_reference` - centralized, exact-arithmetic replay of the
  level-peeling recursion, sharing the protocol's binary64 threshold
  comparison so level sets match the embedded exact-mode protocol bitwise.

:class:`OracleCache` keeps a run's answers in memory, keyed by graph content
hash.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .errors import (ConfigError, InvalidEdit, TooLargeForEnumeration,
                     TooLargeForMaxFlow)
from .graph import Arcs, DynamicGraph, induced_density
from .protocol import threshold_value

ENUMERATION_LIMIT = 20

@dataclass(frozen=True)
class OracleResult:
    members: frozenset[int]
    density: Fraction
    method: str


def _vertex_mask(g: DynamicGraph, ids: Iterable[int]) -> np.ndarray:
    """``ids`` as a membership mask over the vertices; an id outside the
    graph raises, as in ``induced_density``, and never wraps."""
    ids = np.fromiter(ids, np.int64)
    outside = (ids < 0) | (ids >= g.node_count)
    if outside.any():
        raise InvalidEdit(f"node {ids[outside][0]} outside graph")
    mask = np.zeros(g.node_count, bool)
    mask[ids] = True
    return mask


def _check_min_degree(tails: np.ndarray, heads: np.ndarray,
                      members: np.ndarray, density: Fraction) -> None:
    """Every vertex of an optimum has induced degree >= the optimal density,
    otherwise removing it would raise the density.  ``members`` is a mask;
    with density p/q a member's degree d passes when d*q >= p."""
    inside = members[tails] & members[heads]
    deg = np.bincount(tails[inside], minlength=len(members))
    low = members & ~(deg * density.denominator >= density.numerator)
    if low.any():
        raise AssertionError(
            f"optimal-degree property violated at node {np.argmax(low)}")


def graph_content_hash(g: DynamicGraph) -> str:
    # the "|" ends the node count, so no edge bytes can extend its digits
    h = hashlib.sha256(f"{g.node_count}|".encode())
    arcs = Arcs(g)
    tails, heads = arcs.tails, arcs.heads
    below = tails < heads  # g.edges(), in order
    h.update(np.column_stack((tails[below], heads[below])).tobytes())
    return h.hexdigest()


# -- exact densest via max-flow -------------------------------------------------


class _VertexNetwork:
    """Min-cut tests for "exists S with q*|E(S)| - p*|S| > 0", i.e. a set
    denser than p/q, on Goldberg's vertex network (module docstring).

    The CSR holds every arc and its reverse, which is the structure
    ``maximum_flow`` gives its flow matrix, so a residual is capacities
    minus flows entry by entry.  A vertex of degree 0 has no source arc:
    ``maximum_flow`` drops a pair of arcs whose capacities are both 0, and
    the structures would differ.  Only the data array moves across the
    iteration.  The flow is antisymmetric, so an arc's residual plus its
    reverse's is the pair's total capacity; the reversed residual, entry by
    entry, is that total minus the residual, with no transpose.
    """

    def __init__(self, g: DynamicGraph, arcs: Arcs | None = None):
        n, m = g.node_count, g.edge_count
        if 2 * n * m >= 2 ** 31:
            raise TooLargeForMaxFlow(
                f"n={n}, m={m}: capacities up to 2*n*m overflow int32")
        if arcs is None or not arcs.describes(g):
            arcs = Arcs(g)
        self.n_nodes = n
        self.m = m
        self.src = n
        self.sink = n + 1
        size = n + 2
        deg, self.tails, self.heads = arcs.degrees, arcs.tails, arcs.heads
        linked = deg > 0
        # vertex row v: its neighbours, the source (if d_v > 0), the sink;
        # then the source row and the sink row
        lengths = np.concatenate([deg + 1 + linked,
                                  [np.count_nonzero(linked), n]])
        indptr = np.zeros(size + 1, np.int64)
        np.cumsum(lengths, out=indptr[1:])
        rows = np.repeat(np.arange(size), lengths)
        last = indptr[1:n + 1] - 1
        src_col = (last - 1)[linked]
        nbr = rows < n
        nbr[last] = False
        nbr[src_col] = False
        cols = np.empty(indptr[-1], np.int64)
        cols[nbr] = self.heads  # each row's neighbours come first, sorted
        cols[src_col] = self.src
        cols[last] = self.sink
        cols[indptr[n]:indptr[n + 1]] = np.flatnonzero(linked)
        cols[indptr[n + 1]:] = np.arange(n)
        # capacity = q * q_coef + p * p_coef, entry by entry
        self._q_coef = nbr.astype(np.int64)
        self._q_coef[indptr[n]:indptr[n + 1]] = deg[linked]
        self._p_coef = np.zeros(len(cols), np.int64)
        self._p_coef[last] = 2
        self._graph = csr_matrix((np.zeros(len(cols), np.int32), cols, indptr),
                                 shape=(size, size))
        # each entry's capacity plus its reverse's: q both ways on an edge,
        # q*d_v between the source and v, 2p between v and the sink
        self._q_pair = 2 * nbr
        self._q_pair[src_col] = deg[linked]
        self._q_pair[indptr[n]:indptr[n + 1]] = deg[linked]
        self._p_pair = self._p_coef.copy()
        self._p_pair[indptr[n + 1]:] = 2

    def run(self, p: int, q: int) -> tuple[int, np.ndarray]:
        """Max closure value ``max_S q*|E(S)| - p*|S|`` and the residual
        capacities, entry by entry."""
        graph = self._graph
        caps = q * self._q_coef + p * self._p_coef
        graph.data = caps.astype(np.int32)
        res = maximum_flow(graph, self.src, self.sink)
        flow = int(res.flow_value)
        if flow % 2:
            raise AssertionError(f"odd max-flow {flow} in the vertex network")
        return self.m * q - flow // 2, caps - res.flow.data

    def arcs(self, data: np.ndarray) -> csr_matrix:
        """The arcs whose entry in ``data`` is not 0, on the network's
        structure."""
        graph = self._graph
        # a copy, since eliminate_zeros rewrites indices and indptr in place
        arcs = csr_matrix((data, graph.indices, graph.indptr),
                          shape=graph.shape, copy=True)
        arcs.eliminate_zeros()
        return arcs

    def _vertices(self, data: np.ndarray, start: int) -> np.ndarray:
        """Which vertices ``start`` reaches on the arcs of ``data``."""
        reach = np.zeros(self.n_nodes + 2, dtype=bool)
        reach[breadth_first_order(self.arcs(data), start, directed=True,
                                  return_predecessors=False)] = True
        return reach[:self.n_nodes]

    def smallest_maximizer(self, residual: np.ndarray) -> np.ndarray:
        """Vertices reachable from the source in the residual, as a mask."""
        return self._vertices(residual, self.src)

    def reverse(self, residual: np.ndarray, p: int, q: int) -> np.ndarray:
        """The residual of ``run(p, q)`` with every arc reversed, entry by
        entry."""
        return q * self._q_pair + p * self._p_pair - residual

    def largest_maximizer(self, residual: np.ndarray, p: int,
                          q: int) -> np.ndarray:
        """Vertices that cannot reach the sink in the residual of
        ``run(p, q)``, i.e. that the sink does not reach once every arc is
        reversed, as a mask."""
        return ~self._vertices(self.reverse(residual, p, q), self.sink)

    def edge_count(self, members: np.ndarray) -> int:
        """|E(S)| of the vertex mask ``members``: its vertex-to-vertex arcs,
        two per edge."""
        return int(np.count_nonzero(members[self.tails]
                                    & members[self.heads])) // 2

    def density(self, members: np.ndarray) -> Fraction:
        """|E(S)|/|S| of the non-empty vertex mask ``members``."""
        return Fraction(self.edge_count(members),
                        int(np.count_nonzero(members)))


def exact_densest(g: DynamicGraph, start: Iterable[int] | None = None,
                  arcs: Arcs | None = None) -> OracleResult:
    """The largest maximum-density subset, with exact rational certification.

    ``start``, any vertex ids of ``g``, moves only the first guess: its
    density in ``g`` is a lower bound on the optimum, so Dinkelbach starts
    at the larger of it and m/n.  The answer does not depend on it.
    ``arcs``, when their time and edge count are ``g``'s, are taken as
    ``g``'s and not rebuilt."""
    n, m = g.node_count, g.edge_count
    begin = _vertex_mask(g, () if start is None else start)
    if m == 0:
        return OracleResult(frozenset({0}), Fraction(0), "maxflow")
    tester = _VertexNetwork(g, arcs)
    rho = Fraction(m, n)
    if begin.any():
        rho = max(rho, tester.density(begin))
    while True:
        value, residual = tester.run(rho.numerator, rho.denominator)
        if value == 0:
            break
        # some set beats rho; the smallest maximizer is one, and it is
        # strictly denser than rho
        rho = tester.density(tester.smallest_maximizer(residual))
    # at the optimum every densest set has closure value 0; their union is
    # the largest maximizer of the last cut
    p, q = rho.numerator, rho.denominator
    members = tester.largest_maximizer(residual, p, q)
    size = int(np.count_nonzero(members))
    if not size or tester.edge_count(members) * q != p * size:
        raise AssertionError("max-flow certificate is not a densest set")
    _check_min_degree(tester.tails, tester.heads, members, rho)
    return OracleResult(frozenset(np.flatnonzero(members).tolist()), rho,
                        "maxflow")


# -- exhaustive enumeration ------------------------------------------------------


def _subset_edge_counts(g: DynamicGraph) -> np.ndarray:
    """E[mask] = induced edge count for every subset mask (vectorized DP)."""
    n = g.node_count
    adj_masks = [sum(1 << w for w in g.adj[v]) for v in range(n)]
    counts = np.zeros(1 << n, dtype=np.int32)
    # descending v: E[{v} | H] = E[H] + |adj(v) & H| needs H's count first,
    # and H only has bits above v
    for v in range(n - 1, -1, -1):
        high = np.arange(1 << (n - v - 1), dtype=np.uint32) << np.uint32(v + 1)
        sub = high | np.uint32(1 << v)
        counts[sub] = counts[high] + np.bitwise_count(
            np.uint32(adj_masks[v]) & high).astype(np.int32)
    return counts


def _lexmin_optimal_mask(optimal: np.ndarray, n: int) -> int:
    """Lexicographically smallest sorted-vertex-tuple among optimal masks."""
    prefix = 0
    start = 0
    while True:
        if prefix and optimal[prefix]:
            return prefix  # a set is lex-smaller than any of its extensions
        for v in range(start, n):
            cand = prefix | (1 << v)
            block = 1 << (v + 1)
            if optimal[cand::block].any():
                prefix, start = cand, v + 1
                break
        else:
            raise AssertionError("no optimal mask reachable")


def exact_at_least_k(g: DynamicGraph, k: int) -> OracleResult:
    """Densest subset of size >= k by exhaustive enumeration (n <=
    ENUMERATION_LIMIT)."""
    n = g.node_count
    if n > ENUMERATION_LIMIT:
        raise TooLargeForEnumeration(
            f"n={n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    if k > n:
        raise ConfigError(f"k={k} exceeds node count {n}")
    k_eff = max(k, 1)
    counts = _subset_edge_counts(g)
    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.int32)
    valid = sizes >= k_eff
    # for n <= 20 all candidate ratios are exactly ordered in binary64
    dens = np.where(valid, counts / np.maximum(sizes, 1), -1.0)
    best = float(dens.max())
    optimal = valid & (dens == best)
    mask = _lexmin_optimal_mask(optimal, n)
    members = frozenset(v for v in range(n) if mask >> v & 1)
    density = Fraction(int(counts[mask]), len(members))
    if k <= 1:
        arcs = Arcs(g)
        _check_min_degree(arcs.tails, arcs.heads, _vertex_mask(g, members),
                          density)
    return OracleResult(members, density, "enumeration")


def brute_force_densest(g: DynamicGraph) -> OracleResult:
    return exact_at_least_k(g, 0)


# -- centralized peeling reference ----------------------------------------------


@dataclass(frozen=True)
class PeelResult:
    levels: tuple[frozenset[int], ...]
    records: tuple[tuple[int, int, float], ...]  # (|V_j|, |E_j|, ratio)
    closed_by: str


def peel_reference(g: DynamicGraph, threshold_factor: float,
                   p_cap: int | None = None) -> PeelResult:
    """Exact-count replay of the level recursion with the shared binary64
    threshold comparison; mirrors the embedded protocol's closure rules
    (empty level, fixed point, level cap)."""
    members = frozenset(range(g.node_count))
    levels: list[frozenset[int]] = []
    records: list[tuple[int, int, float]] = []
    cap = p_cap if p_cap is not None else g.node_count + 2
    while True:
        nj = len(members)
        if nj == 0:
            return PeelResult(tuple(levels), tuple(records), "empty")
        mj = sum(len(g.adj[u] & members) for u in members) // 2
        ratio = float(mj) / float(nj)
        levels.append(members)
        records.append((nj, mj, ratio))
        if len(records) >= cap:
            return PeelResult(tuple(levels), tuple(records), "cap")
        thr = threshold_value(ratio, threshold_factor)
        survivors = frozenset(u for u in members
                              if len(g.adj[u] & members) >= thr)
        if survivors == members:
            return PeelResult(tuple(levels), tuple(records), "fixed-point")
        members = survivors


# -- at-least-k bounds beyond enumeration scale ----------------------------------


def greedy_at_least_k_witness(g: DynamicGraph, k: int,
                              seed_set: frozenset[int] | None = None
                              ) -> tuple[frozenset[int], Fraction]:
    """Feasible size->=k set built greedily; its density lower-bounds the
    at-least-k optimum."""
    current = set(seed_set) if seed_set else set(exact_densest(g).members)
    outside = sorted(set(range(g.node_count)) - current)
    while len(current) < k:
        best = max(outside, key=lambda v: (len(g.adj[v] & current), -v))
        current.add(best)
        outside.remove(best)
    dens = induced_density(g, current).density
    return frozenset(current), dens


def at_least_k_bounds(g: DynamicGraph, k: int,
                      unconstrained: OracleResult | None = None
                      ) -> tuple[Fraction, Fraction, frozenset[int]]:
    """(lower, upper) bounds on the at-least-k optimal density plus the
    witness set achieving the lower bound.  Exact when n <= 20."""
    if g.node_count <= ENUMERATION_LIMIT:
        res = exact_at_least_k(g, k)
        return res.density, res.density, res.members
    base = unconstrained if unconstrained is not None else exact_densest(g)
    witness, lower = greedy_at_least_k_witness(g, k, base.members)
    upper = min(base.density, Fraction(g.edge_count, max(k, 1)))
    if lower > upper:  # the witness is better than the naive cap
        upper = lower
    return lower, upper, witness


# -- cache ----------------------------------------------------------------------


class OracleCache:
    """In-memory cache of oracle answers, keyed by graph content hash."""

    def __init__(self):
        self._mem: dict[str, OracleResult] = {}

    def exact_densest(self, g: DynamicGraph) -> OracleResult:
        key = graph_content_hash(g)
        if key not in self._mem:
            self._mem[key] = exact_densest(g)
        return self._mem[key]
