"""Property fuzz of whole runs over small configs.

Every drawn config either yields a report or fails with a
``DensetrackError``, and a second run of it gives the same report bytes
(which carry the event-log digest) or the same error.  Most draws build:
hub-star planted graphs under churn that keeps the backbone, or static
graphs with the auto diameter.  The rest probe the config checks.
"""

import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from densetrack.errors import DensetrackError
from densetrack.harness import RunReport, run_scenario


@st.composite
def static_graphs(draw, n):
    kind = draw(st.sampled_from(["gnp", "regular", "planted-dense",
                                 "clique-plus-noise"]))
    if kind == "gnp":
        return {"kind": kind, "n": n, "p": draw(st.sampled_from([0.3, 0.5]))}
    if kind == "regular":
        d = draw(st.integers(3, 6))
        return {"kind": kind, "n": n - (n * d) % 2, "d": d}
    clique = draw(st.integers(2, n))
    if kind == "planted-dense":
        return {"kind": kind, "n": n, "clique": clique,
                "noise_p": draw(st.sampled_from([0.0, 0.1, 0.3])),
                "hub_star": draw(st.booleans())}
    return {"kind": kind, "n": n, "clique": clique,
            "extra_edges": draw(st.integers(n, 2 * n))}


@st.composite
def configs(draw):
    n = draw(st.integers(4, 40))
    churn = draw(st.booleans())
    if churn:
        graph = {"kind": "planted-dense", "n": n,
                 "clique": draw(st.integers(2, n)),
                 "noise_p": draw(st.sampled_from([0.0, 0.05, 0.2])),
                 "hub_star": True}
        kind = draw(st.sampled_from(["random-churn",
                                     "targeted-attack-on-dense-core"]))
        adversary = {"kind": kind, "rate": draw(st.integers(1, 3)),
                     "protect": draw(st.sampled_from(
                         ["backbone"] * 5 + ["none"]))}
        if kind == "random-churn":
            adversary["mode"] = draw(st.sampled_from(["balanced", "uniform"]))
    else:
        graph = draw(static_graphs(n))
        adversary = None
    k = draw(st.integers(0, n))
    mode = draw(st.sampled_from([None, "per-pass", "at-rounds"]))
    if mode == "per-pass":
        queries = {"mode": mode, "k": k,
                   "start_pass": draw(st.integers(0, 2)),
                   "limit": draw(st.integers(1, 3))}
    elif mode == "at-rounds":
        queries = {"mode": mode, "k": k,
                   "rounds": draw(st.lists(st.integers(0, 120), max_size=3))}
    else:
        queries = None
    duration = draw(st.one_of(
        st.fixed_dictionaries({"passes": st.integers(1, 2)}),
        st.fixed_dictionaries({"rounds": st.integers(10, 150)})))
    return {"seed": draw(st.integers(0, 2 ** 16)), "graph": graph,
            "adversary": adversary,
            "protocol": {"epsilon": draw(st.sampled_from([0.5, 1.0])),
                         "diameter": "auto",
                         "exact_counting": draw(st.booleans())},
            "duration": duration, "queries": queries,
            "report": {"emit_log": True}}


def outcome(conf, out_dir):
    """Report bytes, or the error a run fails with; anything else
    escapes."""
    try:
        report = run_scenario(
            conf, log_path=os.path.join(out_dir, "events.ndjson"))
    except DensetrackError as exc:
        return type(exc).__name__, str(exc)
    assert isinstance(report, RunReport) and report.log_digest
    return report.to_json_bytes()


@given(configs())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_runs_report_or_fail_typed_and_repeat_byte_identical(conf):
    with tempfile.TemporaryDirectory() as a, \
            tempfile.TemporaryDirectory() as b:
        assert outcome(conf, a) == outcome(conf, b)
