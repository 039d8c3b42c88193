"""Golden digests: fixed (config, seed) runs must keep byte-identical output.

Each config runs with an event log; the test pins the sha256 of the report
bytes and the event-log digest (which the report also carries).  A change
that means to alter output re-records these values and says why; a refactor
must leave them alone.  The edge-list config reads its graph through a
relative path from a fixed working directory, because the path lands in the
report's config and in the log's config header.
"""

import hashlib

import pytest

from densetrack.harness import run_scenario
from densetrack.scenarios import solve_planted_scenario


def _planted(n, clique, noise_p, seed, protocol, duration, queries,
             adversary=None):
    return {"seed": seed,
            "graph": {"kind": "planted-dense", "n": n, "clique": clique,
                      "noise_p": noise_p, "hub_star": True},
            "adversary": adversary, "protocol": protocol,
            "duration": duration, "queries": queries, "report": {}}


def criterion_8(exact=False):
    conf = solve_planted_scenario(n=60, k=45, rate=1, epsilon=1.0, seed=88,
                                  passes=3)
    if exact:
        conf["protocol"]["exact_counting"] = True
    return conf


K6_PENDANTS = "\n".join([f"{i} {j}" for i in range(6) for j in range(i + 1, 6)]
                        + [f"0 {v}" for v in (6, 7, 8, 9)]) + "\n"

CONFIGS = {
    # acceptance criterion 8's planted run under random churn
    "criterion-8": criterion_8,
    "criterion-8-exact": lambda: criterion_8(exact=True),
    # one coordinate per round, one pass, a k=0 query answered late
    "strict-congest": lambda: _planted(
        8, 5, 0.1, 3,
        {"epsilon": 1.0, "k": 0, "diameter": 2, "strict_congest": True,
         "delta_fail": 0.5},
        {"rounds": 4000}, {"mode": "at-rounds", "rounds": [3990], "k": 0}),
    # criterion 5's K6 with four pendants: exact counting, padded query
    "k6-pendants-exact-padded": lambda: {
        "seed": 4, "graph": {"kind": "edge-list", "path": "pad.txt"},
        "adversary": None,
        "protocol": {"epsilon": 0.96, "k": 7, "diameter": "auto",
                     "exact_counting": True},
        "duration": {"passes": 1}, "queries": {"mode": "per-pass", "k": 7},
        "report": {}},
    # estimator-mode padding, accepted at attempt 16
    "estimator-padding": lambda: _planted(
        40, 12, 0.05, 3, {"epsilon": 1.0, "k": 20, "diameter": 2},
        {"passes": 2}, {"mode": "per-pass", "k": 20, "limit": 1}),
    # the targeted-core benchmark graph, three passes
    "targeted-core": lambda: _planted(
        100, 69, 0.02, 0, {"epsilon": 1.0, "k": 60, "diameter": 2},
        {"passes": 3},
        {"mode": "per-pass", "k": 60, "start_pass": 1, "limit": 3},
        adversary={"kind": "targeted-attack-on-dense-core", "rate": 1,
                   "protect": "backbone", "refresh_every": 2}),
}

# name -> (sha256 of report.to_json_bytes(), event-log digest)
GOLDEN = {
    "criterion-8": (
        "2d935e3d37dfd52a4683dba296db32ec4a98e16c50cf18c34b4286ff5662dd34",
        "898f6014239d929f102e51922ca8179f"),
    "criterion-8-exact": (
        "3130c8cd390477e078aee150c1bcbe757c067d1d251d8aca8418600c89918986",
        "0ce1dcc63b125be50f62a5b0a0feaf76"),
    "strict-congest": (
        "97f390b43913877a317947d4f721eaf73a5ed20c4cd6beb73d21580d2e480a4a",
        "298fd8a52e973401c8d48e17cb44a2fb"),
    "k6-pendants-exact-padded": (
        "71d28c68484bdf33a81a6f5423406a07d166c3cb791f4185609f50cd0a4c03b0",
        "d034499f105327dc12fcab28cea37303"),
    "estimator-padding": (
        "58efa3a075933c714e618e36ee0921c30f6394d97ded7ba9ad5e27683b2a9682",
        "4d5ca80e0f5476de27d632a526b09546"),
    "targeted-core": (
        "8e4de4ff120564e21b9cf10b73e3fe5b61a2fe6cd849e93fd1d372912704adc4",
        "fe4465ae5d769a28122179e0d9e2fe0a"),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pad.txt").write_text(K6_PENDANTS)
    report = run_scenario(CONFIGS[name](),
                          log_path=str(tmp_path / "events.ndjson"))
    got = (hashlib.sha256(report.to_json_bytes()).hexdigest(),
           report.log_digest)
    assert got == GOLDEN[name]
