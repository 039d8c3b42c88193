"""The benchmark's tracer wraps package names by looking them up in
``__dict__``; a rename that drops one of them breaks the traced benchmark.
Installing and removing the tracer here makes such a rename fail fast."""

import sys
from pathlib import Path

import pytest

from densetrack import (adversary, counting, graph, harness, netsim, oracle,
                        protocol, scenarios)

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
