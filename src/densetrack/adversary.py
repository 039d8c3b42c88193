"""Edge-churn adversaries: scripted batches, seeded random churn, and a
targeted mode that preferentially deletes edges inside the current true
densest core.

Every adversary yields at most ``rate`` edits per round.  Scripted schedules
are validated at load time by replaying them against a copy of the initial
graph, so state-mismatched edits (removing an absent edge, inserting a
present one) are rejected before a run starts.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .errors import ChurnBudgetExceeded
from .graph import ADD, REMOVE, DynamicGraph, Edge, Edit, edge_key


class Adversary:
    """Base class; the default adversary never edits anything."""

    def edits_for_round(self, g: DynamicGraph, round_: int) -> list[Edit]:
        return []


@dataclass
class ScriptedAdversary(Adversary):
    edits_by_round: dict[int, tuple[Edit, ...]]

    @classmethod
    def load(cls, script: list[dict], graph: DynamicGraph,
             rate: int) -> "ScriptedAdversary":
        """The adversary of a script whose items are checked ``round``,
        ``op``, ``u`` and ``v`` keys."""
        by_round: dict[int, list[Edit]] = {}
        for item in script:
            by_round.setdefault(item["round"], []).append(
                (item["op"], item["u"], item["v"]))
        # replay against a scratch copy so no-op edits fail at load time
        scratch = graph.copy()
        scratch.churn_rate = rate
        scratch.time = 0
        last = max(by_round, default=-1)
        for rnd in range(last + 1):
            batch = by_round.get(rnd, [])
            if len(batch) > rate:
                raise ChurnBudgetExceeded(
                    f"round {rnd}: {len(batch)} edits exceed rate {rate}")
            scratch.apply_churn(batch)
        return cls({r: tuple(b) for r, b in by_round.items()})

    def edits_for_round(self, g: DynamicGraph, round_: int) -> list[Edit]:
        return list(self.edits_by_round.get(round_, ()))


@dataclass
class RandomChurnAdversary(Adversary):
    """Seeded random churn over non-protected edges.

    ``mode="uniform"`` picks each edit uniformly over the combined space of
    legal inserts and deletes (on sparse graphs this skews toward inserts);
    ``mode="balanced"`` flips a fair coin between insert and delete first,
    which keeps the edge count roughly stationary.
    """

    rng: np.random.Generator
    rate: int
    mode: str = "balanced"
    protected: frozenset[Edge] = field(default_factory=frozenset)
    # the sorted non-protected edges after the last batch, and the graph,
    # round counter and edge count that batch leaves; a graph in any other
    # state rebuilds the pool
    _pool: list[Edge] = field(default_factory=list, repr=False,
                              compare=False)
    _pool_for: tuple = field(default=(None, -1, -1), repr=False,
                             compare=False)

    def _pool_is_current(self, g: DynamicGraph) -> bool:
        graph, time, edges = self._pool_for
        return graph is g and (time, edges) == (g.time, g.edge_count)

    def _sorted_pool(self, g: DynamicGraph) -> list[Edge]:
        if not self._pool_is_current(g):
            self._pool = [e for e in g.edges() if e not in self.protected]
        return self._pool

    def _patch_pool(self, g: DynamicGraph, batch: list[Edit]) -> None:
        """Apply this round's batch to the sorted pool, as the graph will."""
        pool = self._pool
        for op, u, v in batch:
            if op == ADD:
                insort(pool, (u, v))
            else:
                del pool[bisect_left(pool, (u, v))]
        self._pool_for = (g, g.time + 1, g.edge_count + sum(
            1 if op == ADD else -1 for op, _, _ in batch))

    def _sample_absent(self, g: DynamicGraph, removed: set[Edge],
                       added: set[Edge],
                       protected: frozenset[Edge]) -> Edge | None:
        n = g.node_count
        for _ in range(64):
            u = int(self.rng.integers(n))
            v = int(self.rng.integers(n))
            if u == v:
                continue
            e = edge_key(u, v)
            present = (g.has_edge(u, v) or e in added) and e not in removed
            if not present and e not in protected:
                return e
        return None

    def _draw(self, g: DynamicGraph, pool: list[Edge], slots: int, mode: str,
              protected: frozenset[Edge]) -> list[Edit]:
        """Up to ``slots`` edits off the round-start graph ``g``; ``pool``
        holds its sorted edges outside ``protected`` and is patched in place
        as edits accrue, so every draw is what a fresh scan would give."""
        n = g.node_count
        total_pairs = n * (n - 1) // 2
        batch: list[Edit] = []
        removed: set[Edge] = set()
        added: set[Edge] = set()
        for _ in range(slots):
            n_present = g.edge_count - len(removed) + len(added)
            n_absent = total_pairs - n_present
            if mode == "uniform":
                legal = len(pool) + n_absent
                if legal == 0:
                    break
                do_remove = self.rng.random() < len(pool) / legal
            else:
                do_remove = bool(self.rng.random() < 0.5)
            if do_remove and not pool:
                do_remove = False
            if not do_remove and n_absent == 0:
                do_remove = bool(pool)
                if not do_remove:
                    break
            if do_remove:
                idx = int(self.rng.integers(len(pool)))
                e = pool[idx]
                pool[idx] = pool[-1]
                pool.pop()
                removed.add(e)
                added.discard(e)
                batch.append((REMOVE, e[0], e[1]))
            else:
                e = self._sample_absent(g, removed, added, protected)
                if e is None:
                    continue
                added.add(e)
                removed.discard(e)
                pool.append(e)
                batch.append((ADD, e[0], e[1]))
        return batch

    def edits_for_round(self, g: DynamicGraph, round_: int) -> list[Edit]:
        batch = self._draw(g, list(self._sorted_pool(g)), self.rate,
                           self.mode, self.protected)
        self._patch_pool(g, batch)
        return batch


@dataclass
class TargetedAdversary(RandomChurnAdversary):
    """Stress mode: deletes edges inside the current true densest subgraph
    with probability ``bias``, otherwise behaves like balanced random churn.
    The core is recomputed every ``refresh_every`` rounds by the exact
    oracle, started from the last core; the solve reads the graph's own
    arcs, which ``apply_churn`` keeps patched."""

    refresh_every: int = 10
    bias: float = 0.8
    _core: frozenset[int] = field(default_factory=frozenset)
    _core_round: int = -1
    # the sorted non-protected edges inside the core, kept across rounds
    # like the pool and rebuilt with it or when the core changes
    _core_edges: list[Edge] = field(default_factory=list, repr=False,
                                    compare=False)

    def _refresh_core(self, g: DynamicGraph, round_: int) -> None:
        if self._core_round >= 0 and round_ - self._core_round < self.refresh_every:
            return
        self._core = frozenset(oracle.exact_densest(
            g, start=self._core).members)
        self._core_round = round_

    def _patch_core_edges(self, batch: list[Edit]) -> None:
        for op, u, v in batch:
            if u in self._core and v in self._core:
                if op == ADD:
                    insort(self._core_edges, (u, v))
                else:
                    del self._core_edges[bisect_left(self._core_edges, (u, v))]

    def edits_for_round(self, g: DynamicGraph, round_: int) -> list[Edit]:
        core, current = self._core, self._pool_is_current(g)
        self._refresh_core(g, round_)
        if self._core != core or not current:
            self._core_edges = [
                (u, v) for u in sorted(self._core)
                for v in sorted(g.adj[u] & self._core)
                if u < v and (u, v) not in self.protected]
        pool = self._sorted_pool(g)
        batch: list[Edit] = []
        # every slot sees the round-start graph, so later slots must stay off
        # the edges earlier ones edited or the batch repeats an edit
        touched: set[Edge] = set()
        for _ in range(self.rate):
            inside = ([e for e in self._core_edges if e not in touched]
                      if touched else self._core_edges)
            if inside and self.rng.random() < self.bias:
                e = inside[int(self.rng.integers(len(inside)))]
                edits = [(REMOVE, e[0], e[1])]
            else:
                # one balanced random-churn slot off the pool
                edits = self._draw(g, [e for e in pool if e not in touched],
                                   1, "balanced", self.protected | touched)
            touched.update(edge_key(u, v) for _, u, v in edits)
            batch.extend(edits)
        self._patch_pool(g, batch)
        self._patch_core_edges(batch)
        return batch
