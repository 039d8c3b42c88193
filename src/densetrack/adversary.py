"""Edge-churn adversaries: scripted batches, seeded random churn, and a
targeted mode that preferentially deletes edges inside the current true
densest core.

Every adversary yields at most ``rate`` edits per round.  Scripted schedules
are validated at load time by replaying them against a copy of the initial
graph, so state-mismatched edits (removing an absent edge, inserting a
present one) are rejected before a run starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ChurnBudgetExceeded, ConfigError
from .graph import ADD, REMOVE, DynamicGraph, Edge, Edit, edge_key


class Adversary:
    """Base class; the default adversary never edits anything."""

    rate: int = 0

    def edits_for_round(self, g: DynamicGraph, round_: int) -> list[Edit]:
        return []


@dataclass
class ScriptedAdversary(Adversary):
    edits_by_round: dict[int, tuple[Edit, ...]]
    rate: int = 0

    @classmethod
    def load(cls, script: list[dict], graph: DynamicGraph,
             rate: int) -> "ScriptedAdversary":
        by_round: dict[int, list[Edit]] = {}
        for item in script:
            unknown = set(item) - {"round", "op", "u", "v"}
            if unknown:
                raise ConfigError(f"unknown script keys {sorted(unknown)}")
            rnd = int(item["round"])
            op = item["op"]
            if op not in (ADD, REMOVE):
                raise ConfigError(f"script op must be add/remove, got {op!r}")
            by_round.setdefault(rnd, []).append((op, int(item["u"]), int(item["v"])))
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
        return cls({r: tuple(b) for r, b in by_round.items()}, rate=rate)

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
    rate: int = 1
    mode: str = "balanced"
    protected: frozenset[Edge] = field(default_factory=frozenset)

    def _sample_absent(self, g: DynamicGraph, removed: set[Edge],
                       added: set[Edge]) -> Edge | None:
        n = g.node_count
        for _ in range(64):
            u = int(self.rng.integers(n))
            v = int(self.rng.integers(n))
            if u == v:
                continue
            e = edge_key(u, v)
            present = (g.has_edge(u, v) or e in added) and e not in removed
            if not present and e not in self.protected:
                return e
        return None

    def edits_for_round(self, g: DynamicGraph, round_: int) -> list[Edit]:
        n = g.node_count
        total_pairs = n * (n - 1) // 2
        batch: list[Edit] = []
        removed: set[Edge] = set()
        added: set[Edge] = set()
        # one scan per round; the pool is patched in place as edits accrue
        pool = [e for e in g.edges() if e not in self.protected]
        for _ in range(self.rate):
            n_present = g.edge_count - len(removed) + len(added)
            n_absent = total_pairs - n_present
            if self.mode == "uniform":
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
                e = self._sample_absent(g, removed, added)
                if e is None:
                    continue
                added.add(e)
                removed.discard(e)
                pool.append(e)
                batch.append((ADD, e[0], e[1]))
        return batch


@dataclass
class TargetedAdversary(RandomChurnAdversary):
    """Stress mode: deletes edges inside the current true densest subgraph
    with probability ``bias``, otherwise behaves like balanced random churn.
    The core is recomputed every ``refresh_every`` rounds (exact oracle)."""

    refresh_every: int = 10
    bias: float = 0.8
    _core: frozenset[int] = field(default_factory=frozenset)
    _core_round: int = -1

    def _refresh_core(self, g: DynamicGraph, round_: int) -> None:
        if self._core_round >= 0 and round_ - self._core_round < self.refresh_every:
            return
        from .oracle import exact_densest  # local import: oracle is heavier

        self._core = frozenset(exact_densest(g).members)
        self._core_round = round_

    def edits_for_round(self, g: DynamicGraph, round_: int) -> list[Edit]:
        self._refresh_core(g, round_)
        batch: list[Edit] = []
        core = sorted(self._core)
        core_edges = [(u, v) for u in core for v in sorted(g.adj[u] & self._core)
                      if u < v and (u, v) not in self.protected]
        # every slot sees the round-start graph, so later slots must stay off
        # the edges earlier ones edited or the batch repeats an edit
        touched: set[Edge] = set()
        for _ in range(self.rate):
            inside = [e for e in core_edges if e not in touched]
            if inside and self.rng.random() < self.bias:
                e = inside[int(self.rng.integers(len(inside)))]
                edits = [(REMOVE, e[0], e[1])]
            else:
                sub = RandomChurnAdversary(rng=self.rng, rate=1, mode="balanced",
                                           protected=self.protected | touched)
                edits = sub.edits_for_round(g, round_)
            touched.update(edge_key(u, v) for _, u, v in edits)
            batch.extend(edits)
        return batch


_SPEC_KEYS = {
    "scripted": {"kind", "rate", "script"},
    "random-churn": {"kind", "rate", "mode", "protect"},
    "targeted-attack-on-dense-core": {"kind", "rate", "protect",
                                      "refresh_every", "bias"},
}


def check_adversary_spec(spec: dict) -> None:
    """Raise :class:`ConfigError` for an unknown kind, key, mode or protect."""
    kind = spec.get("kind")
    if kind not in _SPEC_KEYS:
        raise ConfigError(f"unknown adversary kind {kind!r}")
    unknown = set(spec) - _SPEC_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown adversary keys {sorted(unknown)}")
    for key, values in (("mode", ("balanced", "uniform")),
                        ("protect", ("backbone", "none"))):
        if spec.get(key, values[0]) not in values:
            raise ConfigError(f"adversary {key} must be one of {values}")


def adversary_from_spec(spec: dict | None, graph: DynamicGraph, seed: int,
                        protected: frozenset[Edge]) -> Adversary:
    """Build the runtime adversary from a scenario spec."""
    if spec is None:
        return Adversary()
    check_adversary_spec(spec)
    kind = spec["kind"]
    rate = int(spec.get("rate", 0))
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, 0xAD))))
    protect = protected if spec.get("protect", "backbone") == "backbone" else frozenset()
    if kind == "scripted":
        return ScriptedAdversary.load(spec.get("script", []), graph, rate)
    if kind == "random-churn":
        return RandomChurnAdversary(rng=rng, rate=rate,
                                    mode=spec.get("mode", "balanced"),
                                    protected=protect)
    return TargetedAdversary(rng=rng, rate=rate, protected=protect,
                             refresh_every=int(spec.get("refresh_every", 10)),
                             bias=float(spec.get("bias", 0.8)))
