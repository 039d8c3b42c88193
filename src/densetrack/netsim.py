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
* **churn** - the adversary edits up to ``churn_rate`` edges.  The engine
  imports no adversary class: any :class:`ChurnSource` will do, and a
  :class:`World` without one applies no churn.

A step sees its own state and what :class:`StepContext` holds: the round,
its inbox, its current neighbor count and its private RNG stream.  The
engine knows no protocol; queries reach the nodes from the harness.  All
node streams derive from one global seed, so a run is a pure function of
(config, seed).

A broadcast is a tuple of message parts (:class:`MessagePart`): each has
a tag, a ``header`` of its other fields, ``canonical_bytes``, its
``values``, an exact, order-free ``merge`` ufunc over them (max, min, or,
a count) and ``row_bits``, its bit rule.  The engine defines no part: the
flag parts live in ``protocol``, the flood-merge tuple and coordinate
parts, with their dtypes, wire prefixes and bit rules, in ``counting``.

The package's parts and broadcasts are slotted dataclasses, not frozen
ones: one is built per sender and round, and a frozen dataclass's
``__init__`` costs about three times as much.  Nothing changes a part once
it is built.

A round's parts are grouped by type, header, dtype and length.  Every
group is metered in one call, from the values its senders sent, never
from what a sender claims: one bit count per part, each weighted by its
sender's degree.  The ledger still sees every sender's broadcast, with its
parts' bits summed, and the log records each one.  Two parts of one group
in one broadcast are metered as two and delivered as their fold.

Every part is delivered merged.  A receiver's inbox is one part per group,
the fold of what its round-start neighbours sent.  Folding that part
equals folding every neighbour's part in any order, so a receiver merges
once per tag, not once per neighbour.  A folded part's values live in a
row the engine refills for each receiver, so they are valid during the
receiving step only.  A group whose rows take at most :data:`STACK_BYTES`
is stacked once per round, at delivery, into one matrix with a row per
sender, and a receiver's fold is one take of its senders' rows and one
reduce.  A wider group keeps its senders' arrays by node id, merges them
pairwise and lets each go once the sender's largest neighbour, its last
receiver to step, has stepped.

The engine reads the round-start graph from one
:class:`~densetrack.graph.Arcs`, patched from each round's batch, not
rebuilt (:class:`_Topology`).  The targeted adversary keeps arcs of its
own, patched from every batch it returns, and hands them to each refresh
of its core, so a refresh builds only the max-flow network's CSR.

Max, min and or are joins, idempotent and order-free, so a fold that holds
an array equal to the join of every sender, the group's top, is the top.
A stacked group with a join merge takes its top at delivery, as the join
of all its rows; a receiver that hears a sender whose row is the top is
handed it instead of folding (:class:`_Merges`).  Wide groups always
fold.  The flags' sum is no join: flags are never handed a top.

The optional event log is newline-delimited JSON with one record per
broadcast plus churn/query/pass markers; byte-identical logs across replays
are the determinism contract.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import HandlerPanic
from .graph import Arcs, DynamicGraph, Edit


# -- message parts -------------------------------------------------------------


class MessagePart(Protocol):
    tag: str
    merge: np.ufunc  # exact and order-free: max, min, or, add
    values: np.ndarray

    def header(self) -> tuple:
        """Every field but ``values``: only parts of one type, header,
        dtype and length are folded together."""

    def row_bits(self, rows: list[np.ndarray]) -> np.ndarray:
        """The bit size of this part carrying each of ``rows`` instead, as
        int64: the values of parts of one type, header, dtype and length."""

    def canonical_bytes(self) -> bytes: ...

    def with_values(self, values: np.ndarray) -> MessagePart:
        """This part carrying ``values`` instead, read when it is used:
        the engine refills that array for every receiver."""


# A group whose rows take at most STACK_BYTES is stacked into one matrix when
# its round is delivered, and a receiver's fold is one take of its senders'
# rows and one reduce; wider rows are merged pairwise.  At fan-in 66 on a
# 2-vCPU VM with numpy 2.4, take-and-reduce took 2.6 us against 13.5 us of
# merges at 16 B rows, 7.3 against 15.4 us at 300 B and 34 against 68 us at
# 8.4 KB, and about even at 16 KB; at 44 KB and fan-in 8, 25.6 us against
# 18.8, and stacking 200 such rows took 0.94 ms.
STACK_BYTES = 16 << 10


@dataclass(slots=True)
class RoundMessage:
    sender: int
    parts: tuple[MessagePart, ...]

    def bit_size(self) -> int:
        return sum(int(p.row_bits([p.values])[0]) for p in self.parts)

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
    A round's parts are metered per tag (:meth:`record_parts`), its
    broadcasts one by one (:meth:`record_broadcast`).
    """

    def __init__(self) -> None:
        self.per_tag: dict[str, TagStats] = {}
        self.global_max_bits = 0
        self.total_bits = 0
        self.total_deliveries = 0

    def record_parts(self, tag: str, bits: np.ndarray,
                     copies: np.ndarray) -> None:
        """Meter parts of ``tag``: part i has ``bits[i]`` bits and is sent
        to ``copies[i]`` neighbours."""
        st = self.per_tag.setdefault(tag, TagStats())
        st.max_bits = max(st.max_bits, int(bits.max()))
        st.total_bits += int(bits @ copies)
        st.messages += int(copies.sum())

    def record_broadcast(self, msg: RoundMessage, copies: int,
                         bits: int) -> None:
        """Meter broadcast ``msg``, whose parts have ``bits`` bits in all,
        sent to ``copies`` neighbours."""
        if bits > self.global_max_bits:
            self.global_max_bits = bits
        self.total_bits += bits * copies
        self.total_deliveries += copies

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

    def append(self, record: dict | str) -> None:
        """Write one record; a str is a line :func:`broadcast_line` made."""
        line = record if isinstance(record, str) else json.dumps(
            record, sort_keys=True, separators=(",", ":"))
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


def broadcast_line(round_: int, node: int, payload_hash: str,
                   bits: int) -> str:
    """The broadcast record as ``json.dumps(..., sort_keys=True,
    separators=(",", ":"))`` writes it, without building the dict."""
    return (f'{{"bits":{bits},"event":"broadcast","node":{node},'
            f'"payload_hash":"{payload_hash}","round":{round_}}}')


# -- node plumbing -------------------------------------------------------------


@dataclass
class StepContext:
    """Everything a step function is allowed to see."""

    round: int
    inbox: list[MessagePart]  # one folded part per group of parts
    neighbor_count: int
    rng: np.random.Generator


class Handler(Protocol):
    def step(self, ctx: StepContext) -> list[MessagePart] | None: ...


class ChurnSource(Protocol):
    def edits_for_round(self, g: DynamicGraph, round_: int) -> list[Edit]: ...


def node_rng(global_seed: int, node_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((global_seed, node_id))))


class _Topology:
    """The round-start graph as the metering and the folds read it: its
    :class:`~densetrack.graph.Arcs` and each node's release point.  It is
    the engine's one neighbour cache: built from the graph, patched from
    each round's edits, and rebuilt only when the graph changed behind the
    engine's back.  A patch binds new arrays, so a round's merges keep the
    ones they read.  The targeted adversary keeps arcs of its own, patched
    from the same batches, and hands them to each oracle refresh, which
    then builds only the CSR.

    A sender's release point is its largest neighbour id: receivers step in
    id order, so that neighbour is the last to read what it sent.  Only
    wide groups release, so the release points are found when one asks."""

    def __init__(self, graph: DynamicGraph):
        self.arcs = Arcs(graph)
        self._forget()

    def _forget(self) -> None:
        self.everyone: tuple | None = None
        self._releases: dict[int, list[int]] | None = None

    def patch(self, graph: DynamicGraph, edits) -> None:
        """Apply one round's applied edits, if this was current before it."""
        if self.arcs.time != graph.time - 1:
            return
        self.arcs.patch(edits)
        if edits:
            self._forget()

    def releases(self) -> dict[int, list[int]]:
        """Receiver -> the senders whose release point it is."""
        if self._releases is None:
            arcs, self._releases = self.arcs, {}
            senders = np.flatnonzero(arcs.degrees)
            lasts = arcs.heads[arcs.ends[senders] - 1]
            for u, v in zip(senders.tolist(), lasts.tolist()):
                self._releases.setdefault(v, []).append(u)
        return self._releases

    def layout(self, senders: list[int]) -> tuple:
        """Every node's sending neighbours among ``senders``, as ids in an
        array ``found``: node v's are ``found[starts[v]:ends[v]]``.  Last
        ``ends`` as an array, which the top of a stacked join group, the
        join of its rows taken at delivery, reads.  Wide groups always
        fold, and flags, a sum, are never handed a top."""
        arcs = self.arcs
        n = len(arcs.degrees)
        sends = np.zeros(n, bool)
        sends[senders] = True
        if np.count_nonzero(sends) == n:
            if self.everyone is None:
                ends = arcs.ends
                self.everyone = (arcs.heads, [0, *ends[:-1].tolist()],
                                 ends.tolist(), ends)
            return self.everyone
        sending = sends[arcs.heads]
        # a node's sending neighbours end where the count of sending arcs
        # stands at its last arc
        ends = np.concatenate(([0], np.cumsum(sending)))[arcs.ends]
        return (arcs.heads[sending], [0, *ends[:-1].tolist()],
                ends.tolist(), ends)


# The merges that are joins, idempotent and order-free: a fold that holds an
# array equal to the join of every sender is that join.  A count is not one.
JOINS = frozenset({np.maximum, np.minimum, np.bitwise_or})


class _Merges:
    """The parts of one round's broadcasts, folded for each receiver right
    before it steps in the next round.

    A group is the value arrays of one part type, header, dtype and length.
    A receiver's fold is written into one row per group, which the group's
    folded part views.  A group whose rows take at most
    :data:`STACK_BYTES` is stacked here into one read-only matrix, a row
    per sender, and a receiver's fold is one take of its senders' rows and
    one reduce, whatever its fan-in.  A wider group keeps its senders'
    arrays in a list indexed by sender id (None where a node sent none) and
    merges them pairwise.  Each of those arrays is let go at its sender's
    release point (:class:`_Topology`), after its last receiver has
    stepped, as a per-sender inbox would be, so a round holds no more of
    them than one message per sender did.

    A stacked group whose merge is a join gets its top here, at delivery:
    the join of all its rows (:func:`_top`).  The senders whose rows equal
    the top are saturated.  A receiver that hears a saturated sender is
    handed the top instead of folding: its fold holds the top, and every
    other row in it is below the top, so the fold is the top.  Every such
    receiver shares the top, so it is read-only.  Wide groups get no top
    and always fold.  Flags are summed, which is no join, so they are
    never handed a top.
    """

    def __init__(self, groups: dict, topology: _Topology):
        self.groups: list[_Group] = []
        held = []  # the pairwise groups' arrays by sender id
        for key, (first, senders, rows, sent) in groups.items():
            _, _, dtype, shape = key
            g = _Group()
            g.merge = first.merge
            g.row = np.empty(shape, dtype)
            # with_values of the folded part, which pins no sender's array
            g.folded = first.with_values(g.row)
            g.with_values = g.folded.with_values
            found, g.starts, g.ends, ends = topology.layout(senders)
            g.stacked = g.row.nbytes <= STACK_BYTES
            g.top = None
            if g.stacked:
                # a row per sender, in id order, as one C-order matrix; a
                # receiver's rows by index
                order = list(dict.fromkeys(senders))
                if len(order) != len(rows):
                    rows = [sent[u] for u in order]
                sent = np.concatenate(rows).reshape((len(order),) + shape)
                sent.flags.writeable = False
                n = len(topology.arcs.degrees)
                if len(order) == n:  # every node sent: row v is node v's
                    g.ids = found
                else:
                    rowof = np.empty(n, np.intp)
                    rowof[order] = np.arange(len(order))
                    g.ids = rowof[found]
                if g.merge in JOINS:
                    g.top = _top(g.merge, g.with_values, sent, g.ids, ends)
            else:
                g.ids = found.tolist()
                held.append(sent)
            g.sent = sent
            self.groups.append(g)
        self.held = held
        self.releases = topology.releases() if held else {}

    def fold(self, v: int) -> list[MessagePart]:
        """Receiver ``v``'s folded parts, valid during its step only."""
        parts = []
        for g in self.groups:
            start, end = g.starts[v], g.ends[v]
            if end - start < 2:
                if end > start:  # a fold of one array is that array
                    parts.append(g.with_values(g.sent[g.ids[start]]))
                continue
            top = g.top
            if top and top[0][v]:  # v hears a saturated sender
                parts.append(top[1])
                continue
            index, row = g.ids[start:end], g.row
            if g.stacked:
                g.merge.reduce(g.sent.take(index, axis=0), axis=0, out=row)
            else:
                merge = g.merge
                arrays = itemgetter(*index)(g.sent)
                merge(arrays[0], arrays[1], out=row)
                for a in arrays[2:]:
                    merge(row, a, out=row)
            parts.append(g.folded)
        return parts

    def release(self, v: int) -> None:
        """Let go of the sender arrays that ``v`` was the last to read."""
        for u in self.releases[v]:
            for sent in self.held:
                sent[u] = None


class _Group:
    """One group of a round's parts, as :class:`_Merges` folds it: its
    merge, the row a receiver's fold is written into and the folded part
    that views it, the senders' arrays (a stacked matrix or a wide group's
    list by sender id), each receiver's keys into them
    (``ids[starts[v]:ends[v]]``), and the top of a stacked join group,
    taken at delivery, or None."""

    __slots__ = ("merge", "row", "folded", "with_values", "starts", "ends",
                 "stacked", "sent", "ids", "top")


def _top(merge: np.ufunc, with_values, sent: np.ndarray, ids: np.ndarray,
         ends: np.ndarray) -> tuple | None:
    """Which receivers hear a saturated sender, and the top as a part; None
    if no sender is saturated.  The top is the join of every row of the
    stacked matrix ``sent``, taken at delivery; receiver v's keys into it
    are ``ids[ends[v - 1]:ends[v]]``.  Only stacked join groups have a top:
    wide groups always fold, and flags, a sum, are never handed one."""
    top = merge.reduce(sent, axis=0)
    top.flags.writeable = False
    saturated = (sent == top).all(axis=1)
    if not saturated.any():
        return None
    heard = np.concatenate(([0], np.cumsum(saturated[ids])))[ends]
    return (np.diff(heard, prepend=0) > 0).tolist(), with_values(top)


class World:
    """The simulation loop: nodes, graph, adversary, ledger, event log."""

    def __init__(self, graph: DynamicGraph, handlers: Sequence[Handler],
                 seed: int, adversary: ChurnSource | None = None,
                 log: EventLog | None = None):
        if len(handlers) != graph.node_count:
            raise ValueError("one handler per node required")
        self.graph = graph
        self.adversary = adversary
        self.handlers = list(handlers)
        self.rngs = [node_rng(seed, i) for i in range(len(handlers))]
        self.round = 0
        self.ledger = BandwidthLedger()
        self.log = log
        self._merges: _Merges | None = None
        self.on_compute_end: list[Callable[["World"], None]] = []
        self._topology = _Topology(graph)

    def run_round(self) -> None:
        r = self.round
        merges, self._merges = self._merges, None
        fold = merges.fold if merges else None
        releases = merges.releases if merges else {}
        staged: list[RoundMessage] = []
        # the graph does not change during compute
        counts = list(map(len, self.graph.adj))
        for i, (handler, rng, count) in enumerate(
                zip(self.handlers, self.rngs, counts)):
            ctx = StepContext(r, fold(i) if fold else [], count, rng)
            try:
                parts = handler.step(ctx)
            except Exception as exc:  # surfaced with node id and round
                raise HandlerPanic(i, r, repr(exc)) from exc
            del ctx  # senders' arrays die with their last reader
            if i in releases:
                merges.release(i)
            if parts:
                staged.append(RoundMessage(i, tuple(parts)))
        for cb in self.on_compute_end:
            cb(self)
        del merges, fold  # its rows go before this round's are made
        self._deliver(r, staged)
        edits = (self.adversary.edits_for_round(self.graph, r)
                 if self.adversary is not None else [])
        self.graph.apply_churn(edits)
        self._topology.patch(self.graph, edits)
        if edits and self.log:
            self.log.append({"round": r, "event": "churn",
                             "edits": [[op, u, v] for op, u, v in edits]})
        self.round += 1

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.run_round()

    def _deliver(self, r: int, staged: list[RoundMessage]) -> None:
        """Group the parts' values by type, header, dtype and length; meter
        each group, then log every broadcast; keep the groups for the next
        round's folds."""
        if not staged:
            return
        if not self._topology.arcs.describes(self.graph):
            self._topology = _Topology(self.graph)
        degrees = self._topology.arcs.degrees
        n = len(degrees)
        # a group's parts, each with its sender, and its arrays by sender id
        groups: dict[tuple, tuple[MessagePart, list[int], list, list]] = {}
        for msg in staged:
            u = msg.sender
            for part in msg.parts:
                vals = part.values
                key = (type(part), part.header(), vals.dtype, vals.shape)
                group = groups.get(key)  # one hash of the key
                if group is None:
                    group = groups[key] = (part, [], [], [None] * n)
                first, senders, rows, sent = group
                senders.append(u)
                rows.append(vals)
                # two parts of one group in one broadcast reach as their fold
                held = sent[u]
                sent[u] = vals if held is None else first.merge(held, vals)
        keys, sizes = [], []  # every part's sender and bits
        for first, senders, rows, _ in groups.values():
            keys += senders
            sizes.append(first.row_bits(rows))
            self.ledger.record_parts(first.tag, sizes[-1], degrees[senders])
        # each sender's bits, exact: float64 sums of them stay far below 2^53
        totals = np.bincount(keys, np.concatenate(sizes), n).astype(np.int64)
        nodes = [msg.sender for msg in staged]
        for msg, copies, bits in zip(staged, degrees[nodes].tolist(),
                                     totals[nodes].tolist()):
            self.ledger.record_broadcast(msg, copies, bits)
            if self.log:
                self.log.append(broadcast_line(r, msg.sender,
                                               msg.payload_hash(), bits))
        self._merges = _Merges(groups, self._topology)
