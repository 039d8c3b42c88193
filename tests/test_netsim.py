import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from densetrack import netsim
from densetrack.adversary import ScriptedAdversary
from densetrack.errors import ConfigError, HandlerPanic
from densetrack.graph import DynamicGraph
from densetrack.netsim import EventLog, StepContext, World
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
