"""Command-line surface: run scenarios, replay logs, query oracles, sweep grids.

Exit codes: 0 when every asserted guarantee held; 1 when one failed (a
conditioned query missed its ratio bound, an answer fell short of k, a
round budget was exceeded, or a replay diverged); 2 when nothing was judged
(bad arguments, a config error found before round 0, or another
``DensetrackError`` such as the hard round cap), with ``error:`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys

from .errors import (ConfigError, DensetrackError, InfeasibleScenario,
                     parse_json, read_text)
from .graph import load_edge_list
from .harness import check_round_budget, emit_report, replay_log, run_scenario
from .oracle import exact_at_least_k, exact_densest
from .scenarios import ScenarioConfig, solve_planted_scenario, sweep_grid


def _load_config(path: str, overrides: argparse.Namespace) -> dict:
    conf = parse_json(read_text(path, "config"), f"config {path}")
    if not isinstance(conf, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if overrides.seed is not None:
        conf["seed"] = overrides.seed
    for name, key, value in (
            ("protocol", "exact_counting", overrides.exact_counting or None),
            ("protocol", "strict_congest", overrides.strict_congest or None),
            ("protocol", "threshold_factor", overrides.threshold_factor),
            ("report", "out", overrides.out)):
        # a section that is not an object fails the config check
        if value is not None and isinstance(conf.setdefault(name, {}), dict):
            conf[name][key] = value
    return conf


def _run_one(conf: dict) -> tuple[dict, bool]:
    config = ScenarioConfig.from_dict(conf)
    out_dir = config.report["out"]
    report = run_scenario(config)
    budget = check_round_budget(report)
    ok = (report.flags["guarantee_failures"] == 0
          and report.flags["size_failures"] == 0 and budget.ok)
    summary = {
        "seed": report.seed,
        "rounds": report.rounds_run,
        "passes": len(report.passes),
        "queries": report.flags["answered_queries"],
        "conditioned": report.flags["conditioned_queries"],
        "guarantee_failures": report.flags["guarantee_failures"],
        "size_failures": report.flags["size_failures"],
        "budget_ok": budget.ok,
        "max_bits_per_edge_round": report.ledger["global_max_bits"],
    }
    if out_dir:
        emit_report(report, out_dir)
    return summary, ok


def cmd_run(args: argparse.Namespace) -> int:
    conf = _load_config(args.config, args)
    summary, ok = _run_one(conf)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if ok else 1


def cmd_replay(args: argparse.Namespace) -> int:
    out = args.out or os.path.dirname(os.path.abspath(args.log))
    res = replay_log(args.log, os.path.join(out, "replay-events.ndjson"))
    if res.identical:
        print(f"replay identical ({res.original_lines} log lines)")
        return 0
    print(f"REPLAY DIVERGED at line {res.first_divergence} "
          f"({res.original_lines} vs {res.replay_lines} lines)")
    return 1


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.k < 0:
        raise ConfigError(f"--k must be >= 0, got {args.k}")
    graph, _ = load_edge_list(args.graph, node_count=args.n)
    if args.k:
        res = exact_at_least_k(graph, args.k)
    else:
        res = exact_densest(graph)
    print(json.dumps({"method": res.method,
                      "density": f"{res.density.numerator}/{res.density.denominator}",
                      "members": sorted(res.members)}, indent=2))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    grid = sweep_grid(parse_json(args.grid, "sweep grid"))
    combos = []
    skipped = []
    for n in grid["n"]:
        for rate in grid["rate"]:
            for eps in grid["epsilon"]:
                k = max(2, int(0.8 * n))
                key = (n, rate, eps)
                try:
                    conf = solve_planted_scenario(n=n, k=k, rate=rate,
                                                  epsilon=eps,
                                                  seed=args.seed or 0,
                                                  passes=args.passes)
                except InfeasibleScenario as exc:
                    skipped.append((key, str(exc)))
                    continue
                if args.out:
                    conf["report"] = {"out": os.path.join(
                        args.out, f"n{n}-r{rate}-eps{eps}")}
                combos.append((key, conf))
    if args.jobs > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            results = pool.map(_run_one, [c for _, c in combos])
    else:
        results = [_run_one(c) for _, c in combos]
    all_ok = True
    for (key, _), (summary, ok) in zip(combos, results):
        all_ok &= ok
        print(json.dumps({"n": key[0], "rate": key[1], "epsilon": key[2],
                          **summary, "ok": ok}, sort_keys=True))
    for key, reason in skipped:
        print(json.dumps({"n": key[0], "rate": key[1], "epsilon": key[2],
                          "skipped": reason}, sort_keys=True))
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densetrack",
        description="Simulate and verify dense-subgraph maintenance on "
                    "edge-dynamic broadcast networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario config")
    p_run.add_argument("--config", required=True, help="scenario JSON path")
    p_run.add_argument("--seed", type=int, default=None, help="override seed")
    p_run.add_argument("--exact-counting", action="store_true",
                       help="replace estimators with exact aggregation")
    p_run.add_argument("--strict-congest", action="store_true",
                       help="serialize one tuple coordinate per round")
    p_run.add_argument("--threshold-factor", type=float, default=None,
                       help="override the peeling threshold factor")
    p_run.add_argument("--out", default=None, help="report output directory")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("replay", help="re-execute an event log and diff")
    p_rep.add_argument("--replay", dest="log", required=True,
                       help="event log path")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=cmd_replay)

    p_or = sub.add_parser("oracle", help="exact solvers on an edge list")
    p_or.add_argument("--graph", required=True, help="edge-list file")
    p_or.add_argument("--k", type=int, default=0,
                      help="at-least-k constraint (0 = unconstrained)")
    p_or.add_argument("--n", type=int, default=None, help="node count")
    p_or.set_defaults(func=cmd_oracle)

    p_sw = sub.add_parser("sweep", help="grid of planted scenarios")
    p_sw.add_argument("--grid", required=True,
                      help='JSON like {"epsilon":[0.5,1.0],"rate":[0,1],"n":[60]}')
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.add_argument("--passes", type=int, default=3)
    p_sw.add_argument("--jobs", type=int, default=1)
    p_sw.add_argument("--out", default=None)
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DensetrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
