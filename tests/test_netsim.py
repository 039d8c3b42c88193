import ast
import dataclasses
import graphlib
import inspect
import json
import tempfile
import weakref
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densetrack import netsim
from densetrack.adversary import RandomChurnAdversary, ScriptedAdversary
from densetrack.counting import (KINDS, CoordPart, MergeStage, TuplePart,
                                 id_bit_width)
from densetrack.errors import ConfigError, HandlerPanic
from densetrack.graph import ADD, REMOVE, DynamicGraph
from densetrack.netsim import EventLog, StepContext, World, broadcast_line
from densetrack.protocol import (DROP_FLAG, MEMBER_FLAG, MEMBER_TAG,
                                 FlagsPart, ProtocolNode, ProtocolParams)
from support import (ReferenceLedger, arcs_state, count_window,
                     part_bit_size)


@dataclasses.dataclass(frozen=True)
class BlobPart:
    """Opaque payload of ``8 * len(data)`` bits that names its senders: its
    values are a bitset of sender ids, or-ed when parts are folded."""

    tag: str
    data: bytes
    values: np.ndarray

    merge = np.bitwise_or

    def with_values(self, values):
        return BlobPart(self.tag, self.data, values)

    def header(self):
        return self.tag, self.data

    def row_bits(self, rows):
        return np.full(len(rows), 8 * len(self.data))

    def canonical_bytes(self) -> bytes:
        return b"B" + self.tag.encode() + self.data


def senders(inbox):
    """The sender ids a step's folded blob parts name."""
    bits = 0
    for part in inbox:
        bits |= int(part.values[0])
    return [i for i in range(64) if bits >> i & 1]


class Chatter:
    """Broadcasts a fixed payload every round and records its inbox."""

    def __init__(self, node_id, data=b"x"):
        self.part = BlobPart("t", data, np.array([1 << node_id], np.uint64))
        self.heard = []

    def step(self, ctx):
        self.heard.append(senders(ctx.inbox))
        return [self.part]


class Quiet:
    def __init__(self):
        self.heard = []

    def step(self, ctx):
        self.heard.append(senders(ctx.inbox))
        return None


def test_broadcast_delivered_next_round_only():
    g = DynamicGraph.from_edges(2, [(0, 1)])
    h = [Chatter(0), Quiet()]
    w = World(g, h, seed=0)
    w.run_round()
    assert h[1].heard == [[]]  # nothing before the first delivery
    w.run_round()
    assert h[1].heard[1] == [0]


def test_isolated_node_broadcast_reaches_nobody():
    g = DynamicGraph(3)
    g.apply_churn([])  # no edges at all
    h = [Chatter(0), Quiet(), Quiet()]
    w = World(g, h, seed=0)
    w.run(3)
    assert all(msgs == [] for msgs in h[1].heard + h[2].heard)


def test_delivery_uses_round_start_topology():
    # the edge is churned away in round 0, but the round-0 broadcast still
    # crosses it; nothing is delivered afterwards
    g = DynamicGraph.from_edges(2, [(0, 1)], churn_rate=1)
    adv = ScriptedAdversary.load([{"round": 0, "op": "remove", "u": 0, "v": 1}],
                                 g, rate=1)
    h = [Chatter(0), Quiet()]
    w = World(g, h, seed=0, adversary=adv)
    w.run(3)
    assert h[1].heard == [[], [0], []]


def reference_layout(g, senders):
    """``_Topology.layout`` of ``senders``, from the graph's neighbour sets:
    each node's sending neighbours, ascending, node after node."""
    rows = [sorted(g.adj[v] & set(senders)) for v in range(g.node_count)]
    ends = np.cumsum([len(row) for row in rows]).tolist()
    return [u for row in rows for u in row], [0, *ends[:-1]], ends, ends


@given(st.integers(0, 2 ** 16), st.integers(3, 12), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_patched_topology_equals_one_built_from_the_churned_graph(
        seed, n, rate):
    # the engine reads the arcs the graph owns and patches from every
    # batch, never rebuilt here; at the end they must equal arcs built from
    # the graph, and the layouts, all nodes sending or some, the reference's
    rng = np.random.default_rng(seed)
    g = DynamicGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.4], churn_rate=rate)
    adversary = RandomChurnAdversary(rng=rng, rate=rate)
    world = World(g, [Chatter(i) for i in range(n)], seed=0,
                  adversary=adversary)
    arcs, topology = g.arcs(), world._topology
    world.run(30)
    assert g.arcs() is arcs
    fresh = netsim._Topology(g.copy())
    assert arcs_state(arcs) == arcs_state(fresh.graph.arcs())
    last = {}  # each sender's release point is its largest neighbour
    for u in range(n):
        if g.adj[u]:
            last.setdefault(max(g.adj[u]), []).append(u)
    assert topology.releases() == fresh.releases() == last
    some = sorted(rng.choice(n, int(rng.integers(1, n)), replace=False))
    for senders in (range(n), range(n), some):  # the second is cached
        found, starts, ends, end_array = topology.layout(list(senders))
        assert [found.tolist(), starts, ends, end_array.tolist()] == list(
            reference_layout(g, senders))


def test_handler_panic_carries_node_and_round():
    class Boom:
        def step(self, ctx):
            if ctx.round == 2:
                raise RuntimeError("nope")
            return None

    g = DynamicGraph.from_edges(2, [(0, 1)])
    w = World(g, [Boom(), Quiet()], seed=0)
    with pytest.raises(HandlerPanic) as err:
        w.run(5)
    assert err.value.node == 0 and err.value.round == 2


def reached(graph, diameter, adversary=None):
    """Nodes that hear node 0 within ``2 * diameter`` rounds: an exact count
    of the set {0} counts 1 exactly there."""
    res = count_window(graph, {0}, diameter, exact=True, adversary=adversary)
    assert set(res.estimates) <= {0.0, 1.0}
    return {v for v, est in enumerate(res.estimates) if est == 1.0}


class TestFlood:
    def test_star_one_round(self):
        g = DynamicGraph.from_edges(6, [(0, i) for i in range(1, 6)])
        assert reached(g, 1) == set(range(6))

    def test_path_two_rounds(self):
        g = DynamicGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert reached(g, 1) == {0, 1, 2}

    def test_path_full_coverage(self):
        g = DynamicGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert reached(g, 2) == set(range(5))

    def test_alternating_trace_covered_at_dynamic_diameter(self):
        # edge alive on even rounds only; D = 2 covers either launch parity
        for present in (1, 0):
            g = DynamicGraph.from_edges(2, [(0, 1)] * present, churn_rate=1)
            ops = [{"round": r, "op": ("add", "remove")[(r + present) % 2],
                    "u": 0, "v": 1} for r in range(4)]
            adv = ScriptedAdversary.load(ops, g, rate=1)
            assert reached(g, 1, adv) == {0, 1}

    def test_rounds_must_be_positive(self):
        # a 0-round window never closes; a run's parameters refuse D = 0 too
        g = DynamicGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="diameter"):
            reached(g, 0)
        with pytest.raises(ConfigError, match="diameter"):
            ProtocolParams(epsilon=0.5, diameter=0)


class TestLedger:
    def test_zero_message_run(self):
        g = DynamicGraph.from_edges(3, [(0, 1), (1, 2)])
        w = World(g, [Quiet(), Quiet(), Quiet()], seed=0)
        w.run(4)
        assert w.ledger.global_max_bits == 0
        assert w.ledger.per_tag == {}

    def test_bits_recomputed_from_payload(self):
        g = DynamicGraph.from_edges(2, [(0, 1)])
        h = [Chatter(0, b"abcd"), Quiet()]
        w = World(g, h, seed=0)
        w.run(2)
        assert w.ledger.per_tag["t"].max_bits == 32
        # one neighbor, two broadcast rounds
        assert w.ledger.per_tag["t"].total_bits == 64

    def test_violations_listed(self):
        g = DynamicGraph.from_edges(2, [(0, 1)])
        w = World(g, [Chatter(0, b"abcdefgh"), Quiet()], seed=0)
        w.run(1)
        # a part over a 16-bit budget is metered in full, never dropped
        assert w.ledger.per_tag["t"].max_bits == 64


def test_event_log_deterministic(tmp_path):
    def run(path):
        g = DynamicGraph.from_edges(3, [(0, 1), (1, 2)], churn_rate=1)
        adv = ScriptedAdversary.load(
            [{"round": 1, "op": "add", "u": 0, "v": 2}], g, rate=1)
        log = EventLog(str(path))
        w = World(g, [Chatter(0), Chatter(1), Quiet()], seed=9,
                  adversary=adv, log=log)
        w.run(4)
        log.close()
        return log.digest(), path.read_bytes()

    d1, b1 = run(tmp_path / "a.ndjson")
    d2, b2 = run(tmp_path / "b.ndjson")
    assert d1 == d2 and b1 == b2


@given(st.integers(0, 10 ** 9), st.integers(0, 10 ** 6),
       st.text("0123456789abcdef", min_size=16, max_size=16),
       st.integers(0, 10 ** 12))
@settings(max_examples=100, deadline=None)
def test_broadcast_line_is_the_json_record(round_, node, payload_hash, bits):
    rec = {"round": round_, "node": node, "event": "broadcast",
           "payload_hash": payload_hash, "bits": bits}
    assert broadcast_line(round_, node, payload_hash, bits) == json.dumps(
        rec, sort_keys=True, separators=(",", ":"))


def kind_values(draw, kind, n, length):
    """One sender's tuple of ``kind``: ids and degs are sized by n."""
    if kind == "geo":
        return np.array(draw(st.lists(st.integers(0, 64), min_size=length,
                                      max_size=length)), np.uint8)
    if kind == "exp":
        return np.array(draw(st.lists(
            st.floats(1e-6, 50.0) | st.just(np.inf), min_size=length,
            max_size=length)))
    if kind == "ids":
        words = (n + 63) // 64
        return np.array(draw(st.lists(st.integers(0, 2 ** 64 - 1),
                                      min_size=words, max_size=words)),
                        np.uint64)
    return np.array(draw(st.lists(st.integers(-1, 40), min_size=n,
                                  max_size=n)), np.int32)


# every kind of part, by what it sends: a whole tuple of a KINDS kind, one
# strict coordinate of a geo or exp tuple, or the flags
PART_KINDS = [*sorted(KINDS), "coord-geo", "coord-exp", "flags"]


def draw_part(draw, kind, n, length, round_):
    if kind == "flags":
        return FlagsPart("t", draw(st.sampled_from(
            [MEMBER_FLAG, DROP_FLAG, MEMBER_FLAG + DROP_FLAG])))
    if kind.startswith("coord-"):
        # nodes in lockstep send coordinate round_ in round round_
        base = kind.removeprefix("coord-")
        return CoordPart("t", base, round_, kind_values(draw, base, n, 1))
    return TuplePart("t", kind, kind_values(draw, kind, n, length),
                     id_bit_width(n))


def fold(kind, length, round_, parts):
    """What a receiver makes of the parts it hears in ``round_``: a fresh
    stage's accumulator, or for flags the summed counts."""
    if kind == "flags":
        return sum((p.values for p in parts), np.zeros(2, np.int64))
    base = kind.removeprefix("coord-")
    strict = base != kind
    # a strict stage that emitted once per round of a diameter-1 window
    stage = MergeStage.empty("t", base, 1, length, strict=strict,
                             emitted=round_ if strict else 0)
    for part in parts:
        stage.absorb(part)
    return stage.has_data, stage.acc


class Sender:
    """Broadcasts its drawn parts in rounds 0 and 1 and folds every part it
    hears in rounds 1 and 2."""

    def __init__(self, sends, kind, length):
        self.sends = sends  # round -> part or None
        self.kind = kind
        self.length = length
        self.heard = {}

    def step(self, ctx):
        if ctx.round:
            assert len(ctx.inbox) <= 1
            assert all(p.tag == "t" for p in ctx.inbox)
            self.heard[ctx.round] = fold(self.kind, self.length, ctx.round,
                                         ctx.inbox)
        part = self.sends.get(ctx.round)
        return [part] if part is not None else None


@st.composite
def merge_rounds(draw, saturated=False):
    """A small graph, one part kind and the parts each node sends in rounds
    0 and 1.  ``saturated``: some senders send the join of their round's
    sends, so their receivers may be handed the top instead of folding (for
    flags that "join" is a sum, which must still be folded), and sometimes
    a hub hears every sender."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    kind = draw(st.sampled_from(PART_KINDS))
    # a strict tuple holds the coordinates 0 and 1 sent in rounds 0 and 1
    length = {"ids": (n + 63) // 64, "degs": n}.get(
        kind, draw(st.integers(1 + kind.startswith("coord-"), 6)))
    sends = [{r: draw_part(draw, kind, n, length, r)
              for r in (0, 1) if draw(st.booleans())} for _ in range(n)]
    if saturated:
        if draw(st.booleans()):
            hub = draw(st.integers(0, n - 1))
            edges = sorted({*edges, *(tuple(sorted((hub, u))) for u in range(n)
                                      if u != hub and sends[u])})
        joins = draw(st.sets(st.integers(0, n - 1), min_size=1))
        for r in (0, 1):
            sent = [s[r] for s in sends if r in s]
            for u in joins:
                if r in sends[u]:
                    sends[u][r] = sent[0].with_values(sent[0].merge.reduce(
                        np.stack([p.values for p in sent])))
    # round 0's churn: the round-1 broadcasts cross the churned graph
    flips = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3)) \
        if pairs else []
    script = [{"round": 0, "op": REMOVE if e in edges else ADD, "u": e[0],
               "v": e[1]} for e in flips]
    return n, edges, kind, length, sends, script


# each way of making a fold, by the widest stacked row: stacked and taken
# (the default at these sizes) or merged pairwise
FOLDS = {"stacked": netsim.STACK_BYTES, "pairwise": 0}


def check_merged_delivery(case, folds):
    """Every node's fold of what it heard in rounds 1 and 2 equals folding
    its round-start neighbours' own parts."""
    n, edges, kind, length, sends, script = case
    g = DynamicGraph.from_edges(n, edges, churn_rate=3)
    adv = ScriptedAdversary.load(script, g, rate=3)
    graphs = [g.copy()]
    nodes = [Sender(sends[i], kind, length) for i in range(n)]
    world = World(g, nodes, seed=0, adversary=adv)
    with mock.patch.object(netsim, "STACK_BYTES", FOLDS[folds]):
        world.run_round()
        graphs.append(g.copy())
        world.run(2)
    for r in (1, 2):
        for v, node in enumerate(nodes):
            want = fold(kind, length, r, [
                sends[u][r - 1] for u in sorted(graphs[r - 1].adj[v])
                if r - 1 in sends[u]])
            got = node.heard[r]
            if kind == "flags":
                assert np.array_equal(got, want)
            else:
                assert got[0] == want[0]
                assert np.array_equal(got[1], want[1])


@given(merge_rounds(), st.sampled_from(sorted(FOLDS)))
@settings(max_examples=300, deadline=None)
def test_merged_delivery_is_the_fold_over_round_start_neighbours(
        case, folds):
    check_merged_delivery(case, folds)


@given(merge_rounds(saturated=True), st.sampled_from(sorted(FOLDS)))
@settings(max_examples=300, deadline=None)
def test_merged_delivery_with_saturated_senders(case, folds):
    check_merged_delivery(case, folds)


@given(st.sampled_from(PART_KINDS), st.integers(1, 130), st.integers(1, 6),
       st.integers(1, 8), st.data())
@settings(max_examples=300, deadline=None)
def test_group_bits_equal_the_per_part_formulas(kind, n, length, rows, data):
    # a group's parts are metered in one call, along the last axis
    parts = [draw_part(data.draw, kind, n, length, 0) for _ in range(rows)]
    if kind == "flags":  # folded counts, summed past a byte
        parts += [FlagsPart("t", np.array(counts)) for counts in data.draw(
            st.lists(st.tuples(st.integers(0, 600), st.integers(0, 600)),
                     min_size=1, max_size=3))]
        parts.append(FlagsPart("t", np.array([255, 1])))
    elif kind.endswith("geo"):  # the identity and the toss cap
        parts += [parts[0].with_values(np.full_like(parts[0].values, toss))
                  for toss in (0, 64)]
    got = parts[0].row_bits([p.values for p in parts])
    assert got.dtype == np.int64
    assert got.tolist() == [part_bit_size(p) for p in parts]


class Talker:
    """Broadcasts its drawn messages in rounds 0 and 1."""

    def __init__(self, sends):
        self.sends = sends  # round -> list of parts

    def step(self, ctx):
        return self.sends.get(ctx.round)


@given(merge_rounds(), st.data())
@settings(max_examples=200, deadline=None)
def test_ledger_equals_the_per_message_reference(case, data):
    # some messages carry a second part, of any kind, under the same tag or
    # another; isolated nodes send to no one
    n, edges, _, _, sends, script = case
    other = data.draw(st.sampled_from(PART_KINDS))
    length = data.draw(st.integers(2, 6))
    messages = []
    for node_sends in sends:
        messages.append({})
        for r, part in node_sends.items():
            parts = [part]
            if data.draw(st.booleans()):
                parts.append(dataclasses.replace(
                    draw_part(data.draw, other, n, length, r),
                    tag=data.draw(st.sampled_from(["t", "u"]))))
            messages[-1][r] = parts
    g = DynamicGraph.from_edges(n, edges, churn_rate=3)
    adv = ScriptedAdversary.load(script, g, rate=3)
    graphs = [g.copy()]
    with tempfile.TemporaryDirectory() as tmp:
        log = EventLog(f"{tmp}/events.ndjson")
        world = World(g, [Talker(m) for m in messages], seed=0,
                      adversary=adv, log=log)
        world.run_round()
        graphs.append(g.copy())
        world.run(2)
        log.close()
        with open(f"{tmp}/events.ndjson", encoding="utf-8") as fh:
            logged = [rec["bits"] for rec in map(json.loads, fh)
                      if rec["event"] == "broadcast"]
    ref = ReferenceLedger()
    bits = [ref.record_broadcast(netsim.RoundMessage(u, tuple(m[r])),
                                 len(graphs[r].adj[u]))
            for r in (0, 1) for u, m in enumerate(messages) if r in m]
    assert world.ledger.summary() == ref.summary()
    assert logged == bits


@pytest.mark.parametrize("folds", sorted(FOLDS))
def test_two_parts_of_one_group_in_one_broadcast_are_folded(folds):
    # node 0 sends two geo parts of tag "t": node 3 hears only node 0, node
    # 1 hears node 2 as well, and the ledger meters both of node 0's parts
    class Node:
        def __init__(self, *rows):
            self.parts = [TuplePart("t", "geo", np.array(r, np.uint8))
                          for r in rows]
            self.heard = []

        def step(self, ctx):
            self.heard.append([p.values.tolist() for p in ctx.inbox])
            return self.parts if ctx.round == 0 else None

    nodes = [Node([5, 0], [0, 7]), Node(), Node([1, 1]), Node()]
    g = DynamicGraph.from_edges(4, [(0, 1), (1, 2), (0, 3)])
    world = World(g, nodes, seed=0)
    with mock.patch.object(netsim, "STACK_BYTES", FOLDS[folds]):
        world.run(2)
    assert [node.heard[1] for node in nodes] == [[], [[5, 7]], [], [[5, 7]]]
    ref = ReferenceLedger()
    for u in (0, 2):
        ref.record_broadcast(netsim.RoundMessage(u, tuple(nodes[u].parts)),
                             len(g.adj[u]))
    assert world.ledger.summary() == ref.summary()
    assert world.ledger.summary()["tags"]["t"]["messages"] == 5


def test_broadcast_bits_are_the_add_at_totals_of_its_parts(tmp_path):
    # node 0 sends two parts of one group and one of another: its bits are
    # the sum of the three, as the per-part np.add.at reference sums them
    def geo(*row):
        return TuplePart("t", "geo", np.array(row, np.uint8))

    sends = [[geo(5, 0), geo(0, 7), FlagsPart(MEMBER_TAG, MEMBER_FLAG)],
             [geo(1, 1)], [], [FlagsPart(MEMBER_TAG, MEMBER_FLAG)]]
    g = DynamicGraph.from_edges(4, [(0, 1), (1, 2), (0, 3), (2, 3)])
    log = EventLog(str(tmp_path / "events.ndjson"))
    world = World(g, [Talker({0: parts}) for parts in sends], seed=0,
                  log=log)
    world.run_round()
    log.close()
    logged = [rec["bits"] for rec in map(
        json.loads, (tmp_path / "events.ndjson").read_text().splitlines())]
    groups = {}
    for u, parts in enumerate(sends):
        for p in parts:
            key = (type(p), p.header(), p.values.dtype, p.values.shape)
            groups.setdefault(key, (p, [], []))
            groups[key][1].append(u)
            groups[key][2].append(p.values)
    totals = np.zeros(4, np.int64)
    for first, senders, rows in groups.values():
        np.add.at(totals, senders, first.row_bits(rows))
    assert logged == totals[[0, 1, 3]].tolist()
    assert logged[0] == sum(part_bit_size(p) for p in sends[0])
    assert world.ledger.global_max_bits == max(logged)


@pytest.mark.parametrize("folds", sorted(FOLDS))
def test_no_sender_array_outlives_its_last_receiver(folds):
    # on the path 0-1-2-3 each sender's last receiver is its largest
    # neighbour.  Merged pairwise, when node v steps, exactly the arrays of
    # the senders whose last receiver is v or later are still alive; stacked,
    # the rows were copied at delivery, so none is
    last = [1, 2, 3, 2]
    sent = {}  # (round, sender) -> weak reference to the array it sent

    class Node:
        def __init__(self, node_id):
            self.id = node_id
            self.alive = []

        def step(self, ctx):
            self.alive.append({u for (r, u), ref in sent.items()
                               if r == ctx.round - 1 and ref() is not None})
            values = np.array([self.id, ctx.round], np.uint8)
            sent[ctx.round, self.id] = weakref.ref(values)
            return [TuplePart("t", "geo", values)]

    nodes = [Node(i) for i in range(4)]
    g = DynamicGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with mock.patch.object(netsim, "STACK_BYTES", FOLDS[folds]):
        World(g, nodes, seed=0).run(3)
    for v, node in enumerate(nodes):
        want = {u for u in range(4) if last[u] >= v and folds == "pairwise"}
        assert node.alive == [set(), want, want]


@pytest.mark.parametrize("wider", [0, 1], ids=["at-bound", "one-wider"])
def test_rows_of_stack_bytes_are_stacked_and_wider_ones_are_not(wider):
    # geo rows of exactly STACK_BYTES, or one item wider, on a star with a
    # tail: every fold equals the per-neighbour fold, and only the wider
    # group still holds a sender's array when the first receiver steps
    length = netsim.STACK_BYTES + wider
    rng = np.random.default_rng(wider)
    rows = [rng.integers(0, 65, length).astype(np.uint8) for _ in range(5)]
    edges = [(0, 1), (0, 2), (0, 3), (3, 4)]
    refs = {}

    class Node:
        def __init__(self, node_id):
            self.id = node_id
            self.heard = []
            self.alive = None

        def step(self, ctx):
            if ctx.round == 0:
                values = rows[self.id].copy()
                refs[self.id] = weakref.ref(values)
                return [TuplePart("t", "geo", values)]
            if self.alive is None:
                self.alive = {u for u, ref in refs.items()
                              if ref() is not None}
            self.heard.append(fold("geo", length, 1, ctx.inbox))
            return None

    nodes = [Node(i) for i in range(5)]
    World(DynamicGraph.from_edges(5, edges), nodes, seed=0).run(2)
    g = DynamicGraph.from_edges(5, edges)
    for v, node in enumerate(nodes):
        want = fold("geo", length, 1, [TuplePart("t", "geo", rows[u])
                                       for u in sorted(g.adj[v])])
        assert node.heard[0][0] == want[0]
        assert np.array_equal(node.heard[0][1], want[1])
    assert (nodes[0].alive == set()) == (not wider)


class Absorber:
    """Sends ``values`` as a geo part in round 0 and absorbs what it hears,
    keeping each part's values as heard and a copy made while it steps."""

    def __init__(self, values):
        self.values = np.array(values, np.uint8)
        self.stage = MergeStage.empty("t", "geo", 1, self.values.size)
        self.heard = []

    def step(self, ctx):
        for part in ctx.inbox:
            self.heard.append((part.values, part.values.copy()))
            self.stage.absorb(part)
        if ctx.round == 0:
            return [TuplePart("t", "geo", self.values)]
        return None


@pytest.mark.parametrize("folds", sorted(FOLDS))
def test_handed_top_is_shared_and_read_only(folds):
    # on K4 node 1 sends the join.  Stacked, nodes 2 and 3 are handed one
    # read-only top; a wide group gets no top, so every receiver folds into
    # a writable row of the engine's.  Absorbing either changes none of it
    join = np.array([3, 2, 5], np.uint8)
    nodes = [Absorber(v) for v in ([1, 2, 0], join, [3, 0, 1], [0, 1, 5])]
    g = DynamicGraph.from_edges(4, [(u, v) for u in range(4)
                                    for v in range(u + 1, 4)])
    with mock.patch.object(netsim, "STACK_BYTES", FOLDS[folds]):
        World(g, nodes, seed=0).run(2)
    for node in nodes:
        values, copy = node.heard[0]
        assert np.array_equal(copy, join)
        assert node.stage.acc is not values
        assert np.array_equal(node.stage.acc, join)
    if folds == "stacked":
        top = nodes[2].heard[0][0]
        assert nodes[3].heard[0][0] is top and not top.flags.writeable
    else:
        for node in nodes:
            values = node.heard[0][0]
            assert values.flags.writeable
            assert all(values is not other.values for other in nodes)


def test_top_is_handed_where_no_receiver_hears_every_sender():
    # on the path 0-1-2-3-4 node 2 sends the join of the round's rows and
    # no node hears every other sender: nodes 1 and 3 hear node 2, so both
    # are handed one read-only top, the join
    rows = [[1, 0, 4], [0, 3, 1], None, [2, 1, 0], [0, 0, 6]]
    join = np.maximum.reduce([r for r in rows if r is not None])
    rows[2] = join
    nodes = [Absorber(r) for r in rows]
    World(DynamicGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
          nodes, seed=0).run(2)
    top = nodes[1].heard[0][0]
    assert nodes[3].heard[0][0] is top and not top.flags.writeable
    assert np.array_equal(top, join)
    for v in (1, 3):
        assert np.array_equal(nodes[v].stage.acc, join)


@pytest.mark.parametrize("folds", sorted(FOLDS))
def test_flags_fold_counts_past_a_byte(folds):
    # a hub hears 300 member flags: the folded count is 300, not 300 mod 256,
    # and the protocol's dispatch reads it as the hub's member degree
    class Hub:
        count = query_count = SimpleNamespace(stage=None)
        _absorb = ProtocolNode._absorb

        def __init__(self):
            self._member_flags_heard = 0
            self.drop_seen = False
            self.heard = []

        def step(self, ctx):
            self.heard.append([(p.tag, p.values.tolist()) for p in ctx.inbox])
            self._absorb(ctx)
            return None

    class Leaf:
        def step(self, ctx):
            return [FlagsPart(MEMBER_TAG, MEMBER_FLAG)] if ctx.round == 0 \
                else None

    hub = Hub()
    g = DynamicGraph.from_edges(301, [(0, i) for i in range(1, 301)])
    world = World(g, [hub] + [Leaf() for _ in range(300)], seed=0)
    with mock.patch.object(netsim, "STACK_BYTES", FOLDS[folds]):
        world.run(2)
    assert hub.heard == [[], [(MEMBER_TAG, [300, 0])]]
    assert hub._member_flags_heard == 300 and not hub.drop_seen


def test_strict_coordinate_out_of_lockstep_panics():
    class Strict:
        def __init__(self, ahead):
            self.stage = MergeStage("t", "geo", 1, np.ones(3, np.uint8), True,
                                    strict=True)
            self.ahead = ahead

        def step(self, ctx):
            for part in ctx.inbox:
                self.stage.absorb(part)
            if self.ahead and ctx.round == 0:
                self.stage.emit()
            return [self.stage.emit()]

    def panic(n, edges, ahead):
        g = DynamicGraph.from_edges(n, edges)
        w = World(g, [Strict(i == ahead) for i in range(n)], seed=0)
        with pytest.raises(HandlerPanic) as err:
            w.run(2)
        return err.value.node, err.value.round

    # node 0's stage runs one coordinate ahead of node 1's: each hears the
    # other's coordinate in the round after it emitted its own, and node 0
    # steps first
    assert panic(2, [(0, 1)], 0) == (0, 1)
    # node 2 runs ahead: node 1 hears node 0's coordinate 0 first and node
    # 2's coordinate 1 second, apart from it, and fails before node 2 steps
    assert panic(3, [(0, 1), (1, 2)], 2) == (1, 1)


def test_fine_lengths_that_differ_still_panic():
    # a receiver hears two fine tuples of one tag but different lengths:
    # they are merged apart, and folding the second one fails
    class Fine:
        def __init__(self, length):
            self.length = length
            self.stage = MergeStage.empty("t", "exp", 1, 4)

        def step(self, ctx):
            for part in ctx.inbox:
                self.stage.absorb(part)
            if self.length:
                return [TuplePart("t", "exp", np.ones(self.length))]
            return None

    g = DynamicGraph.from_edges(3, [(0, 1), (1, 2)])
    w = World(g, [Fine(4), Fine(0), Fine(5)], seed=0)
    with pytest.raises(HandlerPanic) as err:
        w.run(2)
    assert err.value.node == 1 and err.value.round == 1


def test_flags_part_bit_size():
    part = FlagsPart("f", MEMBER_FLAG)
    assert part.row_bits([MEMBER_FLAG, MEMBER_FLAG + DROP_FLAG]).tolist() \
        == [1, 2]


def package_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports relatively, at any depth,
    function-level imports included; an absolute import of the package
    fails the test."""
    local = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            local.update([node.module] if node.module
                         else [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
            assert not any(n.startswith("densetrack") for n in names), path
    return local


def test_engine_knows_no_protocol():
    assert package_imports(Path(netsim.__file__)) <= {"errors", "graph"}
    assert [f.name for f in dataclasses.fields(StepContext)] == [
        "round", "inbox", "neighbor_count", "rng"]


def test_package_imports_form_no_cycle():
    graph = {path.stem: package_imports(path)
             for path in Path(netsim.__file__).parent.glob("*.py")}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as err:
        pytest.fail(f"import cycle {err.args[1]}")


def test_protocol_node_is_the_one_inbox_consumer():
    # every delivered broadcast is read in one loop, so the message path can
    # change behind it
    lines, first = inspect.getsourcelines(ProtocolNode._absorb)
    absorb = {("protocol", n) for n in range(first, first + len(lines))}
    reads = {(path.stem, node.lineno)
             for path in Path(netsim.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "inbox"}
    assert reads and reads <= absorb, sorted(reads - absorb)
