import ast
import dataclasses
from pathlib import Path

import pytest

from densetrack import netsim
from densetrack.adversary import ScriptedAdversary
from densetrack.errors import HandlerPanic
from densetrack.graph import DynamicGraph
from densetrack.netsim import (BlobPart, EventLog, StepContext, World,
                               assert_bandwidth, flood)
from densetrack.protocol import FlagsPart


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


class TestFlood:
    def test_star_one_round(self):
        g = DynamicGraph.from_edges(6, [(0, i) for i in range(1, 6)])
        assert flood(g, [0], b"p", 1) == set(range(6))

    def test_path_two_rounds(self):
        g = DynamicGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert flood(g, [0], b"p", 2) == {0, 1, 2}

    def test_path_full_coverage(self):
        g = DynamicGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert flood(g, [0], b"p", 4) == set(range(5))

    def test_alternating_trace_covered_at_dynamic_diameter(self):
        # edge alive on even rounds only; D = 2 covers either launch parity
        for start_present in (True, False):
            if start_present:
                g = DynamicGraph.from_edges(2, [(0, 1)], churn_rate=1)
            else:
                g = DynamicGraph(2, churn_rate=1)
            present = start_present
            ops = []
            for r in range(4):
                ops.append({"round": r, "op": "remove" if present else "add",
                            "u": 0, "v": 1})
                present = not present
            adv = ScriptedAdversary.load(ops, g, rate=1)
            assert flood(g, [0], b"p", 2, adversary=adv) == {0, 1}

    def test_rounds_must_be_positive(self):
        g = DynamicGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            flood(g, [0], b"p", 0)


class TestLedger:
    def test_zero_message_run(self):
        g = DynamicGraph.from_edges(3, [(0, 1), (1, 2)])
        w = World(g, [Quiet(), Quiet(), Quiet()], seed=0)
        w.run(4)
        assert w.ledger.global_max_bits == 0
        rows = assert_bandwidth(w.ledger, {})
        assert rows == []

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
        rows = assert_bandwidth(w.ledger, {"t": 16})
        assert len(rows) == 1 and not rows[0].ok


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
