"""Per-layer tracing from outside the package.

The tracer wraps public callables of the ``densetrack`` modules for the
duration of one traced pass and restores them afterwards, so untraced passes
carry no tracing (only the round clock of speed.py). Every wrapped call adds
to a per-layer cell: self time (its duration minus the time of the wrapped
calls inside it), total time and call count. Self times are exclusive, so
the ``_s`` cells of one pass add up to the traced part of its wall time.

Calls made a few thousand times per pass (rounds, adversary edits, oracle
solves, builds, emission) are also recorded as spans: name, start, end and
the index of the enclosing span.  Calls made tens of thousands to millions
of times (``MergeStage.absorb``, ledger updates, node steps) are kept as a
count and one summed timer only.
"""

from __future__ import annotations

import time
from collections import defaultdict

_pc = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        # cell per layer: [self_s, calls, total_s]
        self.cells: dict[str, list] = defaultdict(lambda: [0.0, 0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[list[float]] = [[0.0]]  # child time per open frame
        self._open_spans: list[int] = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.adversary_depth = 0

    # -- wrappers ---------------------------------------------------------

    def leaf(self, name: str, fn, tally=None):
        """Wrapper for a hot call with no wrapped calls inside it."""
        stack, cell = self._stack, self.cells[name]

        def wrapper(*args, **kwargs):
            t0 = _pc()
            out = fn(*args, **kwargs)
            dt = _pc() - t0
            stack[-1][0] += dt
            cell[0] += dt
            cell[1] += 1
            cell[2] += dt
            if tally is not None:
                tally(self, args, out)
            return out

        return wrapper

    def frame(self, name: str, fn, span: bool = False):
        """Wrapper for a call that may contain other wrapped calls."""
        stack, cell, spans, open_spans = (self._stack, self.cells[name],
                                          self.spans, self._open_spans)

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            sid = -1
            if span:
                sid = len(spans)
                spans.append([name, 0.0, 0.0, open_spans[-1]])
                open_spans.append(sid)
            t0 = _pc()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = _pc() - t0
                stack.pop()
                stack[-1][0] += dt
                cell[0] += dt - child[0]
                cell[1] += 1
                cell[2] += dt
                if span:
                    spans[sid][1], spans[sid][2] = t0, t0 + dt
                    open_spans.pop()
            return out

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# -- layer boundaries --------------------------------------------------------


def _tally_broadcast(tr: Tracer, args, _out) -> None:
    tr.counts["netsim.broadcasts"] += 1
    tr.counts["netsim.deliveries"] += args[2]


def install(tr: Tracer) -> None:
    """Wrap the layer boundaries of every package module."""
    from densetrack import (adversary, counting, graph, harness, netsim,
                            oracle, protocol, scenarios)

    tr.patch(scenarios.ScenarioConfig, "build",
             tr.frame("scenarios.build", scenarios.ScenarioConfig.build,
                      span=True))
    tr.patch(netsim.World, "run_round",
             tr.frame("netsim.round", netsim.World.run_round, span=True))
    tr.patch(netsim.BandwidthLedger, "record_broadcast",
             tr.leaf("netsim.ledger", netsim.BandwidthLedger.record_broadcast,
                     tally=_tally_broadcast))
    tr.patch(netsim.EventLog, "append",
             tr.leaf("netsim.log", netsim.EventLog.append))
    for attr in ("payload_hash", "bit_size"):
        tr.patch(netsim.RoundMessage, attr,
                 tr.leaf("netsim.log", netsim.RoundMessage.__dict__[attr]))
    tr.patch(protocol.ProtocolNode, "step",
             tr.frame("protocol.step", protocol.ProtocolNode.step))
    tr.patch(counting.MergeStage, "absorb",
             tr.leaf("counting.absorb", counting.MergeStage.absorb))
    tr.patch(counting.MergeStage, "emit",
             tr.leaf("counting.emit", counting.MergeStage.emit))
    for attr in ("geo_stage", "exp_stage", "ids_stage", "degs_stage"):
        tr.patch(protocol, attr,
                 tr.leaf("counting.stage", protocol.__dict__[attr]))
    tr.patch(graph.DynamicGraph, "edges",
             tr.leaf("graph.edges", graph.DynamicGraph.edges))
    tr.patch(graph.DynamicGraph, "apply_churn",
             tr.leaf("graph.churn", graph.DynamicGraph.apply_churn))

    for cls in (adversary.Adversary, adversary.ScriptedAdversary,
                adversary.RandomChurnAdversary, adversary.TargetedAdversary):
        if "edits_for_round" in cls.__dict__:
            tr.patch(cls, "edits_for_round",
                     _adversary_wrapper(tr, cls.__dict__["edits_for_round"]))

    tr.patch(oracle, "exact_densest",
             tr.frame("oracle.densest", oracle.exact_densest, span=True))
    tr.patch(oracle, "maximum_flow", _counted(tr, "oracle.maxflows",
                                               oracle.maximum_flow))
    tr.patch(oracle.OracleCache, "exact_densest",
             _cache_wrapper(tr, oracle.OracleCache.exact_densest))
    # harness imported at_least_k_bounds by name, so it is wrapped there
    tr.patch(harness, "at_least_k_bounds",
             tr.frame("oracle.bounds", harness.at_least_k_bounds, span=True))
    tr.patch(harness._RunState, "on_compute_end",
             tr.frame("harness.observe", harness._RunState.on_compute_end))


def _counted(tr: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        tr.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _adversary_wrapper(tr: Tracer, fn):
    # the targeted adversary calls a random-churn adversary inside its own
    # call; its edits are counted once, at the outermost call
    inner = tr.frame("adversary.edits", fn, span=True)

    def wrapper(*args, **kwargs):
        tr.adversary_depth += 1
        try:
            out = inner(*args, **kwargs)
        finally:
            tr.adversary_depth -= 1
        if tr.adversary_depth == 0:
            tr.counts["adversary.edits"] += len(out)
        return out

    return wrapper


def _cache_wrapper(tr: Tracer, fn):
    """A lookup that solves inside it is a miss; one that does not, a hit."""
    inner = tr.frame("oracle.cache", fn, span=True)

    def wrapper(*args, **kwargs):
        before = tr.cells["oracle.densest"][1]
        out = inner(*args, **kwargs)
        key = ("oracle.cache_misses" if tr.cells["oracle.densest"][1] > before
               else "oracle.cache_hits")
        tr.counts[key] += 1
        return out

    return wrapper


# -- per-layer metrics ------------------------------------------------------

# name -> (unit, better); the order is the print order
PER_LAYER = {
    "scenarios.build_s": ("s", "lower"),
    "netsim.round_s": ("s", "lower"),
    "netsim.deliver_s": ("s", "lower"),
    "netsim.ledger_s": ("s", "lower"),
    "netsim.log_s": ("s", "lower"),
    "netsim.rounds": ("count", "lower"),
    "netsim.broadcasts": ("count", "lower"),
    "netsim.deliveries": ("count", "lower"),
    "protocol.step_s": ("s", "lower"),
    "protocol.steps": ("count", "lower"),
    "counting.absorb_s": ("s", "lower"),
    "counting.absorbs": ("count", "lower"),
    "counting.stage_s": ("s", "lower"),
    "counting.emit_s": ("s", "lower"),
    "graph.edges_s": ("s", "lower"),
    "graph.churn_s": ("s", "lower"),
    "adversary.edits_s": ("s", "lower"),
    "adversary.edits": ("count", "lower"),
    "oracle.densest_s": ("s", "lower"),
    "oracle.densest_calls": ("count", "lower"),
    "oracle.maxflows": ("count", "lower"),
    "oracle.maxflows_per_solve": ("flows/solve", "lower"),
    "oracle.cache_s": ("s", "lower"),
    "oracle.cache_hits": ("count", "higher"),
    "oracle.cache_misses": ("count", "lower"),
    "oracle.bounds_s": ("s", "lower"),
    "harness.observe_s": ("s", "lower"),
    "harness.score_s": ("s", "lower"),
    "harness.emit_s": ("s", "lower"),
    "harness.report_bytes": ("bytes", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_values(tr: Tracer) -> dict[str, float]:
    """One traced pass's cells and counts, under the PER_LAYER names."""
    c, n = tr.cells, tr.counts
    densest_calls = c["oracle.densest"][1]
    return {
        "scenarios.build_s": c["scenarios.build"][0],
        "netsim.round_s": c["netsim.round"][2],
        "netsim.deliver_s": c["netsim.round"][0],
        "netsim.ledger_s": c["netsim.ledger"][0],
        "netsim.log_s": c["netsim.log"][0],
        "netsim.rounds": c["netsim.round"][1],
        "netsim.broadcasts": n["netsim.broadcasts"],
        "netsim.deliveries": n["netsim.deliveries"],
        "protocol.step_s": c["protocol.step"][0],
        "protocol.steps": c["protocol.step"][1],
        "counting.absorb_s": c["counting.absorb"][0],
        "counting.absorbs": c["counting.absorb"][1],
        "counting.stage_s": c["counting.stage"][0],
        "counting.emit_s": c["counting.emit"][0],
        "graph.edges_s": c["graph.edges"][0],
        "graph.churn_s": c["graph.churn"][0],
        "adversary.edits_s": c["adversary.edits"][0],
        "adversary.edits": n["adversary.edits"],
        "oracle.densest_s": c["oracle.densest"][0],
        "oracle.densest_calls": densest_calls,
        "oracle.maxflows": n["oracle.maxflows"],
        "oracle.maxflows_per_solve": (n["oracle.maxflows"] / densest_calls
                                      if densest_calls else 0.0),
        "oracle.cache_s": c["oracle.cache"][0],
        "oracle.cache_hits": n["oracle.cache_hits"],
        "oracle.cache_misses": n["oracle.cache_misses"],
        "oracle.bounds_s": c["oracle.bounds"][0],
        "harness.observe_s": c["harness.observe"][0],
        "harness.score_s": c["harness.run"][0],
        "harness.emit_s": c["harness.emit"][0],
    }
