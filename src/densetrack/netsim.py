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

A step function may read only its own state, its inbox, its current neighbor
count and its private RNG stream; the engine hands it exactly those through
:class:`StepContext`.  All node streams derive from one global seed, so a run
is a pure function of (config, seed).

A broadcast is a tuple of message parts: anything with a tag, a
``bit_size`` and ``canonical_bytes`` (:class:`MessagePart`).  The engine
meters every part from its payload, never trusting the sender.  It defines
only the flag and blob parts; the flood-merge tuple parts, with their dtypes,
wire prefixes and bit rules, live in ``counting.KINDS``.

The optional event log is newline-delimited JSON with one record per
broadcast plus churn/query/pass markers; byte-identical logs across replays
are the determinism contract.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence

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
class FlagsPart:
    """One-bit markers: subgraph membership and the did-anyone-drop bit."""

    tag: str
    member: bool = False
    dropped: bool = False

    def bit_size(self) -> int:
        return int(self.member) + int(self.dropped)

    def canonical_bytes(self) -> bytes:
        return b"F" + self.tag.encode() + bytes([self.member, self.dropped])


@dataclass(frozen=True)
class BlobPart:
    """Opaque payload for flood experiments."""

    tag: str
    data: bytes

    def bit_size(self) -> int:
        return 8 * len(self.data)

    def canonical_bytes(self) -> bytes:
        return b"B" + self.tag.encode() + self.data


@dataclass(frozen=True)
class RoundMessage:
    sender: int
    round: int
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


@dataclass(frozen=True)
class BandwidthRow:
    tag: str
    max_bits: int
    bound_bits: int | None
    ok: bool


def assert_bandwidth(ledger: BandwidthLedger,
                     bounds: dict[str, int]) -> list[BandwidthRow]:
    """Per-tag max-bits table checked against configured bounds.

    Violations are listed in the returned rows, never dropped.
    """
    rows = []
    for tag, st in sorted(ledger.per_tag.items()):
        bound = bounds.get(tag)
        ok = bound is None or st.max_bits <= bound
        rows.append(BandwidthRow(tag, st.max_bits, bound, ok))
    return rows


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
    node_id: int
    inbox: list[RoundMessage]
    neighbor_count: int
    rng: np.random.Generator
    query_inject: int | None = None  # k of a query fired this round, if any


class Handler(Protocol):
    def step(self, ctx: StepContext) -> list[MessagePart] | None: ...


@dataclass
class NodeHandle:
    id: int
    rng: np.random.Generator
    handler: Handler


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
        self.nodes = [NodeHandle(i, node_rng(seed, i), h)
                      for i, h in enumerate(handlers)]
        self.round = 0
        self.ledger = BandwidthLedger()
        self.log = log
        self._inboxes: list[list[RoundMessage]] = [[] for _ in handlers]
        self._pending_query: dict[int, int] = {}  # round -> k
        self.on_compute_end: list[Callable[["World"], None]] = []

    # queries are injected globally: every node sees the same trigger round
    def inject_query(self, round_: int, k: int) -> None:
        if round_ < self.round:
            raise ValueError("cannot inject a query in the past")
        if round_ in self._pending_query:
            raise ValueError(f"round {round_} already holds a query")
        self._pending_query[round_] = k

    def run_round(self) -> None:
        r = self.round
        inboxes, self._inboxes = self._inboxes, [[] for _ in self.nodes]
        inject = self._pending_query.pop(r, None)
        staged: list[RoundMessage] = []
        for h in self.nodes:
            ctx = StepContext(round=r, node_id=h.id, inbox=inboxes[h.id],
                              neighbor_count=self.graph.degree(h.id),
                              rng=h.rng, query_inject=inject)
            inboxes[h.id] = None  # senders' arrays die with their last reader
            try:
                parts = h.handler.step(ctx)
            except Exception as exc:  # surfaced with node id and round
                raise HandlerPanic(h.id, r, repr(exc)) from exc
            if parts:
                staged.append(RoundMessage(h.id, r, tuple(parts)))
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


# -- flooding ------------------------------------------------------------------


class FloodHandler:
    """Forwards an opaque payload once seen; used for reachability probes."""

    def __init__(self, origin: bool, payload: bytes):
        self.has_payload = origin
        self.payload = payload

    def step(self, ctx: StepContext) -> list[MessagePart] | None:
        for msg in ctx.inbox:
            for part in msg.parts:
                if isinstance(part, BlobPart) and part.tag == "flood":
                    self.has_payload = True
        if self.has_payload:
            return [BlobPart("flood", self.payload)]
        return None


def flood(graph: DynamicGraph, origins: Iterable[int], payload: bytes,
          rounds: int, adversary: Adversary | None = None,
          seed: int = 0) -> set[int]:
    """Run a flood for ``rounds`` rounds; returns the reached node set.

    With ``rounds`` at least the trace's dynamic diameter the reached set is
    the whole node set.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    origin_set = set(origins)
    handlers = [FloodHandler(i in origin_set, payload)
                for i in range(graph.node_count)]
    world = World(graph, handlers, seed=seed, adversary=adversary)
    world.run(rounds)
    # one extra compute so the final deliveries are absorbed, without churn
    for h, nh in zip(handlers, world.nodes):
        ctx = StepContext(round=world.round, node_id=nh.id,
                          inbox=world._inboxes[nh.id],
                          neighbor_count=graph.degree(nh.id), rng=nh.rng)
        h.step(ctx)
    return {i for i, h in enumerate(handlers) if h.has_payload}
