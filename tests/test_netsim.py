import ast
import dataclasses
import inspect
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densetrack import netsim
from densetrack.adversary import ScriptedAdversary
from densetrack.counting import KINDS, MergeStage, TuplePart, id_bit_width
from densetrack.errors import ConfigError, HandlerPanic
from densetrack.graph import ADD, REMOVE, DynamicGraph
from densetrack.netsim import (MERGED_SENDER, EventLog, StepContext, World,
                               broadcast_line)
from densetrack.protocol import FlagsPart, ProtocolNode, ProtocolParams
from support import count_window


@dataclasses.dataclass(frozen=True)
class BlobPart:
    """Opaque payload of ``8 * len(data)`` bits."""

    tag: str
    data: bytes

    def bit_size(self) -> int:
        return 8 * len(self.data)

    def canonical_bytes(self) -> bytes:
        return b"B" + self.tag.encode() + self.data


class Chatter:
    """Broadcasts a fixed payload every round and records its inbox."""

    def __init__(self, data=b"x"):
        self.data = data
        self.heard = []

    def step(self, ctx):
        self.heard.append([m.sender for m in ctx.inbox])
        return [BlobPart("t", self.data)]


class Quiet:
    def __init__(self):
        self.heard = []

    def step(self, ctx):
        self.heard.append([m.sender for m in ctx.inbox])
        return None


def test_broadcast_delivered_next_round_only():
    g = DynamicGraph.from_edges(2, [(0, 1)])
    h = [Chatter(), Quiet()]
    w = World(g, h, seed=0)
    w.run_round()
    assert h[1].heard == [[]]  # nothing before the first delivery
    w.run_round()
    assert h[1].heard[1] == [0]


def test_isolated_node_broadcast_reaches_nobody():
    g = DynamicGraph(3)
    g.apply_churn([])  # no edges at all
    h = [Chatter(), Quiet(), Quiet()]
    w = World(g, h, seed=0)
    w.run(3)
    assert all(msgs == [] for msgs in h[1].heard + h[2].heard)


def test_delivery_uses_round_start_topology():
    # the edge is churned away in round 0, but the round-0 broadcast still
    # crosses it; nothing is delivered afterwards
    g = DynamicGraph.from_edges(2, [(0, 1)], churn_rate=1)
    adv = ScriptedAdversary.load([{"round": 0, "op": "remove", "u": 0, "v": 1}],
                                 g, rate=1)
    h = [Chatter(), Quiet()]
    w = World(g, h, seed=0, adversary=adv)
    w.run(3)
    assert h[1].heard == [[], [0], []]


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
        h = [Chatter(b"abcd"), Quiet()]
        w = World(g, h, seed=0)
        w.run(2)
        assert w.ledger.per_tag["t"].max_bits == 32
        # one neighbor, two broadcast rounds
        assert w.ledger.per_tag["t"].total_bits == 64

    def test_violations_listed(self):
        g = DynamicGraph.from_edges(2, [(0, 1)])
        w = World(g, [Chatter(b"abcdefgh"), Quiet()], seed=0)
        w.run(1)
        # a part over a 16-bit budget is metered in full, never dropped
        assert w.ledger.per_tag["t"].max_bits == 64


def test_event_log_deterministic(tmp_path):
    def run(path):
        g = DynamicGraph.from_edges(3, [(0, 1), (1, 2)], churn_rate=1)
        adv = ScriptedAdversary.load(
            [{"round": 1, "op": "add", "u": 0, "v": 2}], g, rate=1)
        log = EventLog(str(path))
        w = World(g, [Chatter(), Chatter(), Quiet()], seed=9,
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


class Sender:
    """Broadcasts its drawn parts in rounds 0 and 1 and folds every part it
    hears in rounds 1 and 2 into a fresh stage per round."""

    def __init__(self, sends, kind, length):
        self.sends = sends  # round -> part or None
        self.kind = kind
        self.length = length
        self.heard = {}

    def step(self, ctx):
        if ctx.round:
            stage = MergeStage.empty("t", self.kind, 1, self.length)
            merged = [m for m in ctx.inbox if m.sender == MERGED_SENDER]
            assert len(merged) <= 1 and len(merged) == len(ctx.inbox)
            for msg in ctx.inbox:
                assert [p.tag for p in msg.parts] == ["t"]
                stage.absorb(msg.parts[0])
            self.heard[ctx.round] = stage
        part = self.sends.get(ctx.round)
        return [part] if part is not None else None


@st.composite
def merge_rounds(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    kind = draw(st.sampled_from(sorted(KINDS)))
    length = {"ids": (n + 63) // 64, "degs": n}.get(
        kind, draw(st.integers(1, 6)))
    sends = [{r: TuplePart("t", kind, kind_values(draw, kind, n, length),
                           id_bit_width(n))
              for r in (0, 1) if draw(st.booleans())} for _ in range(n)]
    # round 0's churn: the round-1 broadcasts cross the churned graph
    flips = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3)) \
        if pairs else []
    script = [{"round": 0, "op": REMOVE if e in edges else ADD, "u": e[0],
               "v": e[1]} for e in flips]
    return n, edges, kind, length, sends, script


# each way of making a fold: gathered and reduced (the default at these
# sizes) or merged pairwise
FOLDS = {"gathered": netsim.GATHER_BYTES, "pairwise": 0}


@given(merge_rounds(), st.sampled_from(sorted(FOLDS)))
@settings(max_examples=200, deadline=None)
def test_merged_delivery_is_the_fold_over_round_start_neighbours(
        case, folds):
    n, edges, kind, length, sends, script = case
    g = DynamicGraph.from_edges(n, edges, churn_rate=3)
    adv = ScriptedAdversary.load(script, g, rate=3)
    graphs = [g.copy()]
    nodes = [Sender(sends[i], kind, length) for i in range(n)]
    world = World(g, nodes, seed=0, adversary=adv)
    with mock.patch.object(netsim, "GATHER_BYTES", FOLDS[folds]):
        world.run_round()
        graphs.append(g.copy())
        world.run(2)
    for r in (1, 2):
        for v, node in enumerate(nodes):
            want = MergeStage.empty("t", kind, 1, length)
            for u in sorted(graphs[r - 1].adj[v]):
                if r - 1 in sends[u]:
                    want.absorb(sends[u][r - 1])
            got = node.heard[r]
            assert got.has_data == want.has_data
            assert np.array_equal(got.acc, want.acc)


def test_fine_lengths_that_differ_still_panic():
    # a receiver hears two fine tuples of one tag but different lengths:
    # they are merged apart, and folding the second one fails
    class Fine:
        def __init__(self, length):
            self.length = length
            self.stage = MergeStage.empty("t", "exp", 1, 4)

        def step(self, ctx):
            for msg in ctx.inbox:
                for part in msg.parts:
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
    assert FlagsPart("f", member=True).bit_size() == 1
    assert FlagsPart("f", member=True, dropped=True).bit_size() == 2


def test_engine_knows_no_protocol():
    tree = ast.parse(Path(netsim.__file__).read_text(encoding="utf-8"))
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            local.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
            assert not any(n.startswith("densetrack") for n in names)
    assert local <= {"adversary", "errors", "graph"}
    assert [f.name for f in dataclasses.fields(StepContext)] == [
        "round", "inbox", "neighbor_count", "rng"]


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
