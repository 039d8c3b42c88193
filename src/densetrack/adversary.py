"""Edge-churn adversaries: scripted batches, seeded random churn, and a
targeted mode that preferentially deletes edges inside the current true
densest core.

Every adversary yields at most ``rate`` edits per round.  Scripted schedules
are validated at load time by replaying them against a copy of the initial
graph, so state-mismatched edits (removing an absent edge, inserting a
present one) are rejected before a run starts.  The random and targeted
adversaries read the edges they may remove from the graph's arcs each
round, so they keep no edge state of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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


@lru_cache(maxsize=4)
def _free_pairs(protected: frozenset[Edge], n: int) -> np.ndarray:
    """Flags indexed by code ``u * n + v``, set where u < v and the edge
    (u, v) is not protected."""
    free = np.triu(np.ones((n, n), bool), 1).ravel()
    free[[u * n + v for u, v in protected]] = False
    return free


@dataclass
class RandomChurnAdversary(Adversary):
    """Seeded random churn over non-protected edges.

    ``mode="uniform"`` picks each edit uniformly over the combined space of
    legal inserts and deletes (on sparse graphs this skews toward inserts);
    ``mode="balanced"`` flips a fair coin between insert and delete first,
    which keeps the edge count roughly stationary.  The edges it may remove
    are read from the graph's arcs each round, so it keeps no edge state.
    """

    rng: np.random.Generator
    rate: int
    mode: str = "balanced"
    protected: frozenset[Edge] = field(default_factory=frozenset)

    def _pool(self, g: DynamicGraph) -> np.ndarray:
        """The round-start graph's edges outside ``protected``, as sorted
        codes ``u * n + v`` (u < v) read from its arcs."""
        arcs, n = g.arcs(), g.node_count
        codes = arcs.tails * n + arcs.heads
        return codes[_free_pairs(self.protected, n)[codes]]

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

    def _draw(self, g: DynamicGraph, pool: np.ndarray, slots: int, mode: str,
              protected: frozenset[Edge]) -> list[Edit]:
        """Up to ``slots`` edits off the round-start graph ``g``; ``pool``
        holds its edge codes outside ``protected`` (see :meth:`_pool`).  A
        copy of it swap-removes each removed edge and appends each added
        one, so every draw is what a fresh scan would give."""
        n = g.node_count
        total_pairs = n * (n - 1) // 2
        size = len(pool)
        codes = np.empty(size + slots, np.int64)
        codes[:size] = pool
        batch: list[Edit] = []
        removed: set[Edge] = set()
        added: set[Edge] = set()
        for _ in range(slots):
            n_present = g.edge_count - len(removed) + len(added)
            n_absent = total_pairs - n_present
            if mode == "uniform":
                legal = size + n_absent
                if legal == 0:
                    break
                do_remove = self.rng.random() < size / legal
            else:
                do_remove = bool(self.rng.random() < 0.5)
            if do_remove and not size:
                do_remove = False
            if not do_remove and n_absent == 0:
                do_remove = bool(size)
                if not do_remove:
                    break
            if do_remove:
                idx = int(self.rng.integers(size))
                e = divmod(int(codes[idx]), n)
                size -= 1
                codes[idx] = codes[size]
                removed.add(e)
                added.discard(e)
                batch.append((REMOVE, e[0], e[1]))
            else:
                e = self._sample_absent(g, removed, added, protected)
                if e is None:
                    continue
                added.add(e)
                removed.discard(e)
                codes[size] = e[0] * n + e[1]
                size += 1
                batch.append((ADD, e[0], e[1]))
        return batch

    def edits_for_round(self, g: DynamicGraph, round_: int) -> list[Edit]:
        return self._draw(g, self._pool(g), self.rate, self.mode,
                          self.protected)


@dataclass
class TargetedAdversary(RandomChurnAdversary):
    """Stress mode: deletes edges inside the current true densest subgraph
    with probability ``bias``, otherwise behaves like balanced random churn.
    The core is recomputed every ``refresh_every`` rounds by the exact
    oracle, started from the last core; the solve, like the edge pools,
    reads the graph's own arcs, which ``apply_churn`` keeps patched."""

    refresh_every: int = 10
    bias: float = 0.8
    _core: frozenset[int] = field(default_factory=frozenset)
    _core_round: int = -1

    def _refresh_core(self, g: DynamicGraph, round_: int) -> None:
        if self._core_round >= 0 and round_ - self._core_round < self.refresh_every:
            return
        self._core = frozenset(oracle.exact_densest(
            g, start=self._core).members)
        self._core_round = round_

    def edits_for_round(self, g: DynamicGraph, round_: int) -> list[Edit]:
        self._refresh_core(g, round_)
        n, pool = g.node_count, self._pool(g)
        inner = np.zeros(n, bool)
        inner[list(self._core)] = True
        inside = pool[np.outer(inner, inner).ravel()[pool]]
        batch: list[Edit] = []
        edits: list[Edit] = []
        # every slot sees the round-start graph, so later slots must stay off
        # the edges earlier ones edited or the batch repeats an edit
        for _ in range(self.rate):
            for _, u, v in edits:
                code = u * n + v
                pool, inside = pool[pool != code], inside[inside != code]
            if len(inside) and self.rng.random() < self.bias:
                code = int(inside[int(self.rng.integers(len(inside)))])
                edits = [(REMOVE, *divmod(code, n))]
            else:
                # one balanced random-churn slot off the pool
                touched = {(u, v) for _, u, v in batch}
                edits = self._draw(g, pool, 1, "balanced",
                                   self.protected | touched)
            batch.extend(edits)
        return batch
