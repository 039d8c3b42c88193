#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the densetrack simulator.

    python3 bench/run.py                       # all workloads, all metrics
    python3 bench/run.py --workload churn-dense --seconds 20 --trace 0

One workload runs in one process with one thread.  After the package import
and a timed set-up, the workload's run list is executed in whole untraced
passes until ``--seconds`` is used up (at least two passes), and the
end-to-end metrics are taken.  ``--trace 1`` then adds one traced pass for
the per-layer metrics.  Every pass runs each config through
``run_scenario`` and ``emit_report``; the outputs are then checked and the
operations counted.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one thread per workload process; must be set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("churn-dense", "targeted-core", "static-suite")
SETUP_REPEATS = 3

# name -> unit, in print order
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "answer_ratio": "ratio",
    "pass_rounds": "rounds",
    "max_msg_bits": "bits",
    "bits_per_round": "bits",
}
LAYER_UNITS = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}


def import_package() -> None:
    """Import densetrack from this checkout's src/."""
    pkg = SRC / "densetrack"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"bench: package source not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import densetrack
    if Path(densetrack.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"bench: imported densetrack from {densetrack.__file__}, "
                 f"not from {pkg}")


def time_import() -> float:
    """Median rescaled time of a fresh package import, each in a child
    process that times the reference loop on its own CPU."""
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import speed; "
            "probe = speed.SpeedProbe(); import densetrack; "
            "probe.mark(force=True); print(probe.scaled)")
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(BENCH_DIR)],
            stdout=subprocess.PIPE, text=True, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def time_setup(runs: list[dict]) -> tuple[float, list]:
    """Median over repeats of validating and building every config, and
    the (graph, params) pairs of the last repeat; set-up time is this plus
    the import time."""
    from densetrack.scenarios import ScenarioConfig

    times = []
    for _ in range(SETUP_REPEATS):
        probe = speed.SpeedProbe()
        built = []
        for conf in runs:
            built.append(ScenarioConfig.from_dict(conf).build())
            probe.mark()
        probe.mark(force=True)
        times.append(probe.scaled)
    return statistics.median(times), built


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0      # rescaled (untraced) or raw (traced) seconds
        self.raw = 0.0       # raw seconds of program work
        self.elapsed = 0.0   # raw seconds, reference loops included
        self.reports: list = []
        self.errors: list[str] = []
        self.emitted: list[str] = []
        self.tracer = None


def run_pass(wl, traced: bool) -> Pass:
    """One pass over the run list.  An untraced pass is measured in
    stretches ended after a round or a run (see speed.py); a traced pass
    wraps the layer boundaries instead and is timed as a whole."""
    from densetrack import harness, netsim, oracle

    p = Pass(traced)
    run_scenario, emit_report = harness.run_scenario, harness.emit_report
    run_round = netsim.World.run_round
    probe = None
    if traced:
        p.tracer = tracing.Tracer()
        tracing.install(p.tracer)
        run_scenario = p.tracer.frame("harness.run", run_scenario, span=True)
        emit_report = p.tracer.frame("harness.emit", emit_report, span=True)
    else:
        probe = speed.SpeedProbe()

        def probed_round(world):
            run_round(world)
            probe.mark()

        netsim.World.run_round = probed_round
    cache = oracle.OracleCache()  # shared by the runs of one pass
    try:
        t0 = time.perf_counter()
        for i, conf in enumerate(wl.runs):
            run_dir = OUT / wl.name / f"run{i:03d}"
            log_path = str(run_dir / "events.ndjson") if wl.log else None
            try:
                rep = run_scenario(conf, cache=cache, log_path=log_path)
                p.emitted.extend(emit_report(rep, str(run_dir)).values())
            except Exception:  # a run that raises is a failed operation
                rep = None
                p.errors.append(f"run {i} raised:\n{traceback.format_exc()}")
            p.reports.append(rep)
            if probe is not None:
                probe.mark()
        p.elapsed = time.perf_counter() - t0
    finally:
        if p.tracer is not None:
            p.tracer.restore()
        netsim.World.run_round = run_round
    if probe is not None:
        probe.mark(force=True)
        p.wall, p.raw = probe.scaled, probe.raw
    else:
        p.wall = p.raw = p.elapsed
    return p


def measure(wl, seconds: float) -> list[Pass]:
    """Whole untraced passes until the next one would overrun ``seconds``;
    at least two."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, traced=False))
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed + passes[-1].elapsed > seconds:
            return passes


# -- checks and accounting ----------------------------------------------------


class Outcome:
    def __init__(self) -> None:
        self.problems: list[str] = []
        self.queries = [0, 0]  # attempted, failed
        self.runs = [0, 0]


def account(wl, passes: list[Pass], built: list) -> Outcome:
    """Count every pass's operations and check the outputs.

    Reports must be byte-identical across the passes of one invocation, so
    the round budgets and the workload's own checks run on the first pass.
    """
    from densetrack.harness import check_round_budget

    out = Outcome()
    first = passes[0].reports
    first_bytes = [rep.to_json_bytes() if rep else None for rep in first]
    budget_ok = []
    for i, rep in enumerate(first):
        budget = check_round_budget(rep) if rep is not None else None
        budget_ok.append(budget is not None and budget.ok)
        if budget is not None and not budget.ok:
            bad = [row for row in budget.rows if not row["ok"]]
            out.problems.append(f"run {i}: check_round_budget failed: {bad}")
    for p in passes:
        out.problems.extend(p.errors)
        for i, (conf, rep) in enumerate(zip(wl.runs, p.reports)):
            out.runs[0] += 1
            if rep is None:  # raised; it has no queries to count
                out.runs[1] += 1
                continue
            if rep.to_json_bytes() != first_bytes[i]:
                out.problems.append(f"run {i}: report bytes differ between "
                                    f"passes of one invocation")
            out.runs[1] += not budget_ok[i]
            for q in rep.queries:
                failed, problems = workloads.classify_query(
                    q, conf["protocol"]["epsilon"])
                out.queries[0] += 1
                out.queries[1] += failed
                if p is passes[0]:
                    out.problems.extend(f"run {i}: {s}" for s in problems)
    if wl.log:
        for i, (conf, rep) in enumerate(zip(wl.runs, first)):
            if rep is not None:
                out.problems.extend(workloads.check_event_log(
                    OUT / wl.name / f"run{i:03d}" / "events.ndjson", rep,
                    conf["graph"].get("hub_star", False),
                    conf["adversary"]["rate"]))
    if wl.name == "static-suite":
        out.problems.extend(workloads.check_static(wl.runs, built, first))
    return out


def end_to_end(reports: list, setup_s: float, walls: list[float]) -> dict:
    done = [rep for rep in reports if rep is not None]
    ratios = [Fraction(q["ratio"]) for rep in done for q in rep.queries
              if q.get("status") == "answered" and q.get("ratio")]
    lengths = [p["length"] for rep in done for p in rep.passes]
    rounds = sum(rep.rounds_run for rep in done)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "answer_ratio": float(sum(ratios) / len(ratios)) if ratios else 0.0,
        "pass_rounds": sum(lengths) / len(lengths) if lengths else 0.0,
        "max_msg_bits": max((rep.ledger["global_max_bits"] for rep in done),
                            default=0),
        "bits_per_round": (sum(rep.ledger["total_bits"] for rep in done)
                           / rounds if rounds else 0.0),
    }


def per_layer(traced: Pass, untraced: list[Pass]) -> dict:
    """The traced pass's layers; the overhead is its time minus the median
    untraced pass time, both raw."""
    values = tracing.layer_values(traced.tracer)
    values["harness.report_bytes"] = sum(os.path.getsize(f)
                                         for f in traced.emitted)
    values["trace.wall_s"] = traced.wall
    values["trace.overhead_s"] = traced.wall - statistics.median(
        p.raw for p in untraced)
    return {name: values[name] for name in tracing.PER_LAYER}


def write_trace(path: Path, tr) -> None:
    """Spans and cells of one traced pass, for reading by hand."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tr.spans, "cells": tr.cells,
                   "counts": tr.counts}, fh)


def print_metrics(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:28s} {value!r:>22} {units[name]}")


def metrics_json(values: dict, units: dict) -> dict:
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def run_workload(args) -> int:
    import_package()
    import_s = time_import()

    wl = workloads.make(args.workload, args.input_seed, args.seed)
    build_s, built = time_setup(wl.runs)
    passes = measure(wl, args.seconds)
    e2e = end_to_end(passes[0].reports, import_s + build_s,
                     [p.wall for p in passes])
    layers = None
    if args.trace:
        traced = run_pass(wl, traced=True)
        layers = per_layer(traced, passes)
        write_trace(OUT / wl.name / "trace.json", traced.tracer)
        passes.append(traced)
    outcome = account(wl, passes, built)

    for msg in outcome.problems:
        print(f"bench: CHECK FAILED: {msg}", file=sys.stderr)
    print(f"workload {wl.name}: {len(passes)} passes of {len(wl.runs)} "
          f"run(s); pass times raw/rescaled "
          + ", ".join(f"{p.raw:.3f}/{p.wall:.3f}s"
                      f"{' traced' if p.traced else ''}" for p in passes))
    print(f"operations: queries {outcome.queries[0]} attempted, "
          f"{outcome.queries[1]} failed; runs {outcome.runs[0]} attempted, "
          f"{outcome.runs[1]} failed")
    print_metrics("end-to-end:", e2e, END_TO_END)
    metrics = metrics_json(e2e, END_TO_END)
    if layers is not None:
        print_metrics("per-layer:", layers, LAYER_UNITS)
        # the end-to-end metrics of a traced run, for run_all's summary
        print("end-to-end " + json.dumps(metrics))
        metrics = metrics_json(layers, LAYER_UNITS)
    result = {"correct": not outcome.problems,
              "attempted": outcome.queries[0] + outcome.runs[0],
              "failed": outcome.queries[1] + outcome.runs[1],
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, with ``--trace 1`` so that one
    process gives both metric sets."""
    results = {}
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "1"]
        if args.input_seed is not None:
            cmd += ["--input-seed", str(args.input_seed)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
            e2e = json.loads(next(line for line in lines
                                  if line.startswith("end-to-end {"))
                             .split(" ", 1)[1])
        except (IndexError, StopIteration, json.JSONDecodeError):
            print(f"bench: {name} exited {proc.returncode} without a "
                  f"result", file=sys.stderr)
            return 1
        for metric, m in {**e2e, **results[name]["metrics"]}.items():
            metrics[f"{name}/{metric}"] = m
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload in this process (default: all, each "
                         "in its own process)")
    ap.add_argument("--seed", type=int, default=0,
                    help="run-order seed of the static suite")
    ap.add_argument("--input-seed", type=int, default=None,
                    help="replace the README seeds of every workload's "
                         "inputs, to recheck a claim on unseen inputs")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring time; whole passes, at least two")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add a traced pass and print the per-layer "
                         "metrics as the result")
    args = ap.parse_args()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
