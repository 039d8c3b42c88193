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
    # criterion 5's K6 with four pendants: exact counting, a padded query
    # accepted at attempt 1
    "k6-pendants-exact-padded": lambda: {
        "seed": 4, "graph": {"kind": "edge-list", "path": "pad.txt"},
        "adversary": None,
        "protocol": {"epsilon": 0.96, "k": 7, "diameter": "auto",
                     "exact_counting": True},
        "duration": {"passes": 1}, "queries": {"mode": "per-pass", "k": 7},
        "report": {}},
    # estimator-mode padding, accepted at attempt 1
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
        "c2372f97b13de7dcf3a06092f2066e38227a74df9a48985bf3e636a48928cc14",
        "2833fbcdb3718f3795ae29e5b63d18f8"),
    "criterion-8-exact": (
        "aacc8a2ce524160e6f39fda6d6aeef24cc338c7d8a90012d7b2f5e19fe4387bd",
        "57e69c5c3138a474aee9c03573264714"),
    "strict-congest": (
        "97f390b43913877a317947d4f721eaf73a5ed20c4cd6beb73d21580d2e480a4a",
        "298fd8a52e973401c8d48e17cb44a2fb"),
    "k6-pendants-exact-padded": (
        "ba480edda8e2f380c1461ff62e1951c0315620827455cab6eeaa643faff7a217",
        "583f07d111261daa0345ce9e6357eaf6"),
    "estimator-padding": (
        "d82e303b9e062a4a7ef2b94445a17028084f7c829182d14c0b63ad7fa47cca1a",
        "1912b8a10903e2ec9634a994bdc7c9ae"),
    "targeted-core": (
        "e7a6080c3622f807cda1300bb463977f50b337211d43dc4867df64b8e0dda88d",
        "b005d4624150271863e152fae1d18ef6"),
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
