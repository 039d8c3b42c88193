"""The benchmark's tracer wraps package names by looking them up in
``__dict__``; a rename that drops one of them breaks the traced benchmark.
Installing and removing the tracer here makes such a rename fail fast, and
a traced run checks that its counts are true: a hot path that stops calling
a wrapped boundary makes a bench layer read 0, and fails here instead."""

import json
import sys
from pathlib import Path

import pytest

from densetrack import (adversary, counting, graph, harness, netsim, oracle,
                        protocol, scenarios)
from test_golden import criterion_8

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = (adversary, counting, graph, harness, netsim, oracle, protocol,
           scenarios)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    yield tracer
    sys.modules.pop("tracer", None)


def namespaces():
    """Every package module and the classes defined in it."""
    for mod in MODULES:
        yield mod
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                yield value


def test_tracer_installs_and_restores(tracer):
    before = {id(ns): dict(vars(ns)) for ns in namespaces()}
    tr = tracer.Tracer()
    try:
        tracer.install(tr)
        patched = [(owner, attr) for owner, attr, _ in tr._patched]
        assert patched
        for owner, attr in patched:
            assert vars(owner)[attr] is not before[id(owner)][attr]
    finally:
        tr.restore()
    for owner, attr in patched:
        assert vars(owner)[attr] is before[id(owner)][attr], \
            f"{owner.__name__}.{attr} not restored"


def test_traced_counts_are_true(tracer, tmp_path):
    conf = criterion_8()
    log = tmp_path / "events.ndjson"
    tr = tracer.Tracer()
    try:
        tracer.install(tr)
        report = harness.run_scenario(conf, log_path=str(log))
    finally:
        tr.restore()
    layers = tracer.layer_values(tr)
    events = [json.loads(row)["event"]
              for row in log.read_text(encoding="utf-8").splitlines()]
    assert layers["netsim.rounds"] == report.rounds_run > 0
    assert layers["protocol.steps"] == conf["graph"]["n"] * report.rounds_run
    assert layers["counting.absorbs"] > 0
    assert tr.cells["counting.emit"][1] > 0
    assert layers["netsim.broadcasts"] == events.count("broadcast") > 0
    assert layers["netsim.deliveries"] == report.ledger["total_deliveries"]
