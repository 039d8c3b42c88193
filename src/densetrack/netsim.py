"""Lock-step synchronous broadcast engine with bandwidth accounting.

Each round has three phases, always in this order:

* **compute** - every node's step function runs once with the inbox that was
  delivered at the end of the previous round.  A step may stage at most one
  broadcast (a list of message parts).
* **deliver** - staged broadcasts reach the sender's neighbors *in the
  topology the round started with*; they appear in inboxes at the next
  round's compute phase, never earlier or later.  Channels are lossless.
  A broadcast is the sender's state when it was staged, so D must bound the
  dynamic diameter for a flood to reach every node in D rounds.
* **churn** - the adversary edits up to ``churn_rate`` edges.

A step sees its own state and what :class:`StepContext` holds: the round,
its inbox, its current neighbor count and its private RNG stream.  The
engine knows no protocol; queries reach the nodes from the harness.  All
node streams derive from one global seed, so a run is a pure function of
(config, seed).

A broadcast is a tuple of message parts: anything with a tag, a
``bit_size`` and ``canonical_bytes`` (:class:`MessagePart`).  The engine
meters every part from its payload, never trusting the sender.  It defines
no part: the flag parts live in ``protocol``, the flood-merge tuple parts,
with their dtypes, wire prefixes and bit rules, in ``counting.KINDS``.

The optional event log is newline-delimited JSON with one record per
broadcast plus churn/query/pass markers; byte-identical logs across replays
are the determinism contract.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .adversary import Adversary
from .errors import HandlerPanic
from .graph import DynamicGraph


# -- message parts -------------------------------------------------------------


class MessagePart(Protocol):
    tag: str

    def bit_size(self) -> int: ...

    def canonical_bytes(self) -> bytes: ...


@dataclass(frozen=True)
class RoundMessage:
    sender: int
    parts: tuple[MessagePart, ...]

    def bit_size(self) -> int:
        return sum(p.bit_size() for p in self.parts)

    def payload_hash(self) -> str:
        h = hashlib.blake2b(digest_size=8)
        for p in self.parts:
            h.update(p.canonical_bytes())
        return h.hexdigest()


# -- ledger, log ---------------------------------------------------------------


@dataclass
class TagStats:
    max_bits: int = 0
    total_bits: int = 0
    messages: int = 0


class BandwidthLedger:
    """Per-algorithm-tag maxima and totals of bits crossing single edges.

    A broadcast of B bits on an edge in a round contributes B to that
    (edge, round, direction); since each node stages at most one broadcast
    per round, the per-edge-per-round maximum equals the largest message.
    """

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
            bits = part.bit_size()
            total += bits
            st = self.per_tag.setdefault(part.tag, TagStats())
            st.max_bits = max(st.max_bits, bits)
            st.total_bits += bits * copies
            st.messages += copies
        self.global_max_bits = max(self.global_max_bits, total)
        self.total_bits += total * copies
        self.total_deliveries += copies
        return total

    def summary(self) -> dict:
        return {
            "global_max_bits": self.global_max_bits,
            "total_bits": self.total_bits,
            "total_deliveries": self.total_deliveries,
            "tags": {t: {"max_bits": s.max_bits, "total_bits": s.total_bits,
                         "messages": s.messages}
                     for t, s in sorted(self.per_tag.items())},
        }


class EventLog:
    """Newline-delimited JSON event stream plus a running digest."""

    def __init__(self, path: str):
        self._fh = open(path, "w", encoding="utf-8")
        self._digest = hashlib.blake2b(digest_size=16)
        self.records = 0

    def append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._digest.update(line.encode())
        self._digest.update(b"\n")
        self._fh.write(line + "\n")
        self.records += 1

    def digest(self) -> str:
        return self._digest.hexdigest()

    def close(self) -> None:
        if self._fh:
            self._fh.close()
            self._fh = None


# -- node plumbing -------------------------------------------------------------


@dataclass
class StepContext:
    """Everything a step function is allowed to see."""

    round: int
    inbox: list[RoundMessage]
    neighbor_count: int
    rng: np.random.Generator


class Handler(Protocol):
    def step(self, ctx: StepContext) -> list[MessagePart] | None: ...


def node_rng(global_seed: int, node_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((global_seed, node_id))))


class World:
    """The simulation loop: nodes, graph, adversary, ledger, event log."""

    def __init__(self, graph: DynamicGraph, handlers: Sequence[Handler],
                 seed: int, adversary: Adversary | None = None,
                 log: EventLog | None = None):
        if len(handlers) != graph.node_count:
            raise ValueError("one handler per node required")
        self.graph = graph
        self.adversary = adversary or Adversary()
        self.handlers = list(handlers)
        self.rngs = [node_rng(seed, i) for i in range(len(handlers))]
        self.round = 0
        self.ledger = BandwidthLedger()
        self.log = log
        self._inboxes: list[list[RoundMessage]] = [[] for _ in handlers]
        self.on_compute_end: list[Callable[["World"], None]] = []

    def run_round(self) -> None:
        r = self.round
        inboxes, self._inboxes = self._inboxes, [[] for _ in self.handlers]
        staged: list[RoundMessage] = []
        for i, (handler, rng) in enumerate(zip(self.handlers, self.rngs)):
            ctx = StepContext(round=r, inbox=inboxes[i],
                              neighbor_count=self.graph.degree(i), rng=rng)
            inboxes[i] = None  # senders' arrays die with their last reader
            try:
                parts = handler.step(ctx)
            except Exception as exc:  # surfaced with node id and round
                raise HandlerPanic(i, r, repr(exc)) from exc
            if parts:
                staged.append(RoundMessage(i, tuple(parts)))
        for cb in self.on_compute_end:
            cb(self)
        for msg in staged:
            # staged is in sender-id order, so each inbox is too; neighbor
            # iteration order never leaks anywhere
            nbrs = self.graph.neighbors(msg.sender)
            bits = self.ledger.record_broadcast(msg, len(nbrs))
            for v in nbrs:
                self._inboxes[v].append(msg)
            if self.log:
                self.log.append({"round": r, "node": msg.sender,
                                 "event": "broadcast",
                                 "payload_hash": msg.payload_hash(),
                                 "bits": bits})
        edits = self.adversary.edits_for_round(self.graph, r)
        self.graph.apply_churn(edits)
        if edits and self.log:
            self.log.append({"round": r, "event": "churn",
                             "edits": [[op, u, v] for op, u, v in edits]})
        self.round += 1

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.run_round()

