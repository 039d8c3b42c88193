#!/usr/bin/env python3
"""Compare the benchmark of a revision with that of the worktree, in pairs.

Usage: python3 scripts/bench_pairs.py REV [--workload W ...] [--pairs 10]
       [--seconds 20] [--input-seed S] [--tmp DIR] [--json PATH]

Both sides are exported with ``git archive`` into a temporary directory:
REV as committed, and the worktree as ``git add -A`` would stage it (through
a scratch index, so the real index is left alone).  For every workload (all
of ``BENCHMARK.json`` by default) it runs ``--pairs`` untraced pairs of
``bench/run.py --workload W --trace 0``, REV first in even pairs and the
worktree first in odd ones, and prints, per end-to-end metric, both sides'
medians and quartiles, the worktree's wins and its verdict against the
metric's bound: ``WORSE`` when its median is worse than REV's by more than
the bound, and ``gain`` when it wins at least nine pairs in ten and its
median is better by more than REV's interquartile range.

``--json PATH`` also writes that summary to PATH: per workload, the
operation counts, every pair's end-to-end values and each metric's row;
the two revisions; and the Python, numpy and scipy versions, CPU model
and reference-loop time of the machine that ran them.  For the file, each
side of each workload also runs three traced ``bench/run.py --trace 1
--seconds 1`` after its pairs, the sides alternating, and the median of
each per-layer metric over them is stored under ``layers``: one traced
pass on a shared machine can vary by tens of percent.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def export(rev: str | None, dest: Path) -> str:
    """Write the tree of ``rev``, or of the worktree when None, to ``dest``;
    return the commit or tree id written."""
    git = ["git", "-C", str(REPO)]
    env = None
    if rev is None:
        env = {**os.environ, "GIT_INDEX_FILE": str(dest) + ".index"}
        subprocess.run(git + ["add", "-A"], env=env, check=True)
        rev = subprocess.run(git + ["write-tree"], env=env, check=True,
                             capture_output=True, text=True).stdout.strip()
    else:
        rev = subprocess.run(
            git + ["rev-parse", "--verify", rev + "^{commit}"], check=True,
            capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(git + ["archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return rev


def parse_result(stdout: str) -> dict:
    """The result object on the last line of a ``bench/run.py`` run."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("bench printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(pairs: list[tuple[dict, dict]], spec: dict) -> list[dict]:
    """One row per end-to-end metric of ``spec`` over (base, change)
    result pairs."""
    rows = []
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        b_q1, b_med, b_q3 = quartiles(base)
        c_q1, c_med, c_q3 = quartiles(change)
        wins = sum((c < b) if lower else (c > b)
                   for b, c in zip(base, change))
        worse = (c_med - b_med) if lower else (b_med - c_med)
        if b_med and worse > metric["bound"] * abs(b_med):
            verdict = "WORSE"
        elif wins >= 0.9 * len(pairs) and -worse > b_q3 - b_q1:
            verdict = "gain"
        else:
            verdict = "ok"
        rows.append({"metric": name, "unit": metric["unit"],
                     "base": (b_q1, b_med, b_q3),
                     "change": (c_q1, c_med, c_q3),
                     "ratio": c_med / b_med if b_med else None,
                     "wins": wins, "pairs": len(pairs),
                     "bound": metric["bound"], "verdict": verdict})
    return rows


def format_summary(workload: str, pairs: list[tuple[dict, dict]],
                   rows: list[dict]) -> str:
    def ops(side):
        return "{failed}/{attempted}".format(**operations(pairs, side))

    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    out = [f"{workload}: {len(pairs)} pairs; failed/attempted operations "
           f"base {ops(0)}, change {ops(1)}",
           f"  {'metric':16s} {'base median [q1, q3]':>30s} "
           f"{'change median [q1, q3]':>30s} {'ratio':>7s} {'wins':>6s} "
           f"{'bound':>6s}  verdict"]
    for r in rows:
        ratio = f"{r['ratio']:.3f}" if r["ratio"] is not None else "-"
        out.append(f"  {r['metric']:16s} {cell(r['base']):>30s} "
                   f"{cell(r['change']):>30s} {ratio:>7s} "
                   f"{r['wins']:>3d}/{r['pairs']:<2d} "
                   f"{r['bound'] * 100:>5.0f}%  {r['verdict']}")
    return "\n".join(out)


def operations(pairs: list[tuple[dict, dict]], side: int) -> dict:
    return {key: sum(p[side][key] for p in pairs)
            for key in ("failed", "attempted")}


def cpu_model() -> str:
    """The CPU model named in ``/proc/cpuinfo``, else the platform's."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for row in fh:
                if row.startswith("model name"):
                    return row.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def reference_loop_s(tree: Path) -> float:
    """Median of 5 runs of ``reference_loop()`` from ``tree``'s
    ``bench/speed.py``: the speed the bench rescales its times by."""
    spec = importlib.util.spec_from_file_location(
        "bench_speed", tree / "bench" / "speed.py")
    speed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(speed)
    return statistics.median(speed.reference_loop() for _ in range(5))


def machine(tree: Path) -> dict:
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "cpu": cpu_model(),
            "reference_loop_s": reference_loop_s(tree)}


def record(revisions: dict, settings: dict,
           results: dict[str, tuple[list, list[dict]]],
           tree: Path = REPO, layers: dict | None = None) -> dict:
    """The JSON document of a comparison: ``results`` maps each workload
    to its (base, change) result pairs and its summary rows; ``tree`` holds
    the ``bench/speed.py`` whose reference loop is timed; ``layers`` maps a
    workload to each side's traced result."""
    workloads = {}
    for workload, (pairs, rows) in results.items():
        metrics = [r["metric"] for r in rows]
        workloads[workload] = {
            "pairs": len(pairs),
            "operations": {"base": operations(pairs, 0),
                           "change": operations(pairs, 1)},
            "runs": [{side: {m: res["metrics"][m]["value"] for m in metrics}
                      for side, res in zip(("base", "change"), pair)}
                     for pair in pairs],
            "metrics": rows}
        if layers and workload in layers:
            workloads[workload]["layers"] = {
                side: {m: v["value"] for m, v in res["metrics"].items()}
                for side, res in layers[workload].items()}
    return {"revisions": revisions, "settings": settings,
            "machine": machine(tree), "workloads": workloads}


TRACED_RUNS = 3


def median_result(results: list[dict]) -> dict:
    """The metrics of ``results``, each the median of its values there."""
    return {"metrics": {
        name: {"value": statistics.median(r["metrics"][name]["value"]
                                          for r in results),
               "unit": m["unit"]}
        for name, m in results[0]["metrics"].items()}}


def run_bench(tree: Path, workload: str, args, trace: bool = False) -> dict:
    """One untraced run of ``args.seconds``, or with ``trace`` a one-second
    run whose result holds the per-layer metrics of its traced pass."""
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload",
           workload, "--trace", str(int(trace)), "--seconds",
           "1" if trace else str(args.seconds)]
    if args.input_seed is not None:
        cmd += ["--input-seed", str(args.input_seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    return parse_result(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the revision to compare the worktree with")
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--input-seed", type=int, default=None)
    ap.add_argument("--tmp", default=None,
                    help="directory for the two exported trees, made if "
                         "missing")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="also write the summary to PATH as JSON")
    args = ap.parse_args()
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    results, layers = {}, {}
    if args.tmp:
        Path(args.tmp).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        base, change = Path(tmp) / "base", Path(tmp) / "change"
        revisions = {
            "base": {"rev": args.rev, "commit": export(args.rev, base)},
            "change": {"rev": "worktree", "tree": export(None, change)}}
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                order = (base, change) if i % 2 == 0 else (change, base)
                res = {tree: run_bench(tree, workload, args) for tree in order}
                pairs.append((res[base], res[change]))
                print(f"{workload} pair {i + 1}: wall_s "
                      f"{res[base]['metrics']['wall_s']['value']:.3f} / "
                      f"{res[change]['metrics']['wall_s']['value']:.3f}",
                      file=sys.stderr, flush=True)
            rows = summarize(pairs, spec)
            results[workload] = (pairs, rows)
            print(format_summary(workload, pairs, rows), flush=True)
            if args.json:
                traced = {"base": [], "change": []}
                for _ in range(TRACED_RUNS):
                    for side, tree in (("base", base), ("change", change)):
                        traced[side].append(
                            run_bench(tree, workload, args, trace=True))
                layers[workload] = {side: median_result(results)
                                    for side, results in traced.items()}
        if args.json:  # while the base tree, with its bench/speed.py, exists
            settings = {"pairs": args.pairs, "seconds": args.seconds,
                        "input_seed": args.input_seed}
            Path(args.json).write_text(json.dumps(
                record(revisions, settings, results, base, layers),
                indent=1) + "\n",
                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
