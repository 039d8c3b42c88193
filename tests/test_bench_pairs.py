"""``scripts/bench_pairs.py`` summarizes canned bench result lines; nothing
here runs the benchmark."""

import importlib.util
import json
import sys
import types

from support import REPO

spec = importlib.util.spec_from_file_location(
    "bench_pairs", REPO / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "answer_ratio", "unit": "ratio", "better": "lower",
     "bound": 0.01}]}


def line(wall, rss, failed=1):
    """The last stdout line of one ``bench/run.py`` run, after a log line."""
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"},
               "answer_ratio": {"value": 1.0, "unit": "ratio"}}
    return "operations: ...\n" + json.dumps(
        {"correct": True, "attempted": 19, "failed": failed,
         "metrics": metrics}) + "\n"


def canned_pairs():
    base = [7.6, 7.7, 7.5, 7.8, 7.6, 7.7, 7.65, 7.55, 7.7, 7.6]
    change = [4.2, 4.3, 4.25, 4.2, 7.9, 4.3, 4.2, 4.25, 4.3, 4.2]
    return [(bench_pairs.parse_result(line(b, 74.0)),
             bench_pairs.parse_result(line(c, 80.0)))
            for b, c in zip(base, change)]


def test_summary_medians_wins_and_verdicts():
    rows = {r["metric"]: r
            for r in bench_pairs.summarize(canned_pairs(), SPEC)}
    wall = rows["wall_s"]
    assert wall["base"][1] == 7.625 and wall["change"][1] == 4.25
    assert wall["wins"] == 9 and wall["pairs"] == 10
    assert wall["verdict"] == "gain"
    assert abs(wall["ratio"] - 4.25 / 7.625) < 1e-12
    # 74 -> 80 MB is 8 % worse, past its 5 % bound; never a win
    assert rows["peak_rss_mb"]["verdict"] == "WORSE"
    assert rows["peak_rss_mb"]["wins"] == 0
    # equal on every pair: neither a win nor worse
    assert rows["answer_ratio"]["verdict"] == "ok"
    assert rows["answer_ratio"]["wins"] == 0


def test_formatted_summary_names_every_metric_and_operation_counts():
    pairs = canned_pairs()
    text = bench_pairs.format_summary(
        "churn-dense", pairs, bench_pairs.summarize(pairs, SPEC))
    lines = text.splitlines()
    assert lines[0] == ("churn-dense: 10 pairs; failed/attempted operations "
                        "base 10/190, change 10/190")
    wall = next(s for s in lines if s.split()[0] == "wall_s")
    assert "7.625 [" in wall and "4.25 [" in wall
    assert wall.split()[-4:] == ["0.557", "9/10", "20%", "gain"]
    assert [s.split()[0] for s in lines[2:]] == [
        "wall_s", "peak_rss_mb", "answer_ratio"]


def test_gain_needs_nine_wins_in_ten():
    pairs = canned_pairs()
    pairs[0] = (pairs[0][0], bench_pairs.parse_result(line(8.0, 80.0)))
    rows = bench_pairs.summarize(pairs, SPEC)
    assert rows[0]["wins"] == 8 and rows[0]["verdict"] == "ok"


def test_json_record_holds_the_summary_revisions_and_machine():
    pairs = canned_pairs()
    rows = bench_pairs.summarize(pairs, SPEC)
    revisions = {"base": {"rev": "HEAD", "commit": "a" * 40},
                 "change": {"rev": "worktree", "tree": "b" * 40}}
    settings = {"pairs": 10, "seconds": 20.0, "input_seed": None}
    doc = json.loads(json.dumps(bench_pairs.record(
        revisions, settings, {"churn-dense": (pairs, rows)})))
    assert doc["revisions"] == revisions and doc["settings"] == settings
    assert set(doc["machine"]) == {"python", "numpy", "scipy", "cpu",
                                   "reference_loop_s"}
    loop_s = doc["machine"].pop("reference_loop_s")
    assert isinstance(loop_s, float) and 0 < loop_s < 10
    assert all(isinstance(v, str) and v for v in doc["machine"].values())
    work = doc["workloads"]["churn-dense"]
    assert work["pairs"] == 10
    assert work["operations"] == {"base": {"failed": 10, "attempted": 190},
                                  "change": {"failed": 10, "attempted": 190}}
    assert work["runs"][4] == {
        "base": {"wall_s": 7.6, "peak_rss_mb": 74.0, "answer_ratio": 1.0},
        "change": {"wall_s": 7.9, "peak_rss_mb": 80.0, "answer_ratio": 1.0}}
    wall = work["metrics"][0]
    assert wall["metric"] == "wall_s" and wall["verdict"] == "gain"
    assert wall["base"][1] == 7.625 and wall["change"][1] == 4.25
    assert wall["wins"] == 9
    assert [r["verdict"] for r in work["metrics"]] == ["gain", "WORSE", "ok"]


def test_main_makes_a_missing_tmp_dir(tmp_path, monkeypatch, capsys):
    # the exports and the bench runs are stubbed: nothing runs the bench
    nested = tmp_path / "a" / "b"
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {"correct": True, "attempted": 19, "failed": 1,
              "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                          for m in spec["end_to_end"]}}
    exported, ran = [], []

    def export(rev, dest):
        exported.append(dest)
        return "a" * 40

    def run_bench(tree, workload, args):
        ran.append((tree, workload))
        return result

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "HEAD", "--workload", "churn-dense", "--pairs",
        "2", "--tmp", str(nested)])
    assert bench_pairs.main() == 0
    assert [d.name for d in exported] == ["base", "change"]
    assert all(d.parent.parent == nested for d in exported)
    assert len(ran) == 4 and {w for _, w in ran} == {"churn-dense"}
    assert capsys.readouterr().out.startswith("churn-dense: 2 pairs")


def test_json_keeps_the_median_of_three_traced_runs_per_side(tmp_path,
                                                              monkeypatch):
    # the exports and the bench runs are stubbed: nothing runs the bench
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    ran = []
    # each side's traced values, in run order: the medians are 4 and 60
    traced = {"base": iter([9, 4, 1]), "change": iter([60, 75, 2])}

    def export(rev, dest):
        return "a" * 40

    def run_bench(tree, workload, args, trace=False):
        ran.append((tree.name, workload, trace))
        if trace:
            value = next(traced[tree.name]) if workload == "churn-dense" \
                else len(tree.name)
            metrics = {"oracle.maxflows": {"value": value, "unit": "count"}}
        else:
            metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                       for m in spec["end_to_end"]}
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs, "machine", lambda tree: {})
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "HEAD", "--workload", "churn-dense", "--workload",
        "targeted-core", "--pairs", "2", "--tmp", str(tmp_path),
        "--json", str(out)])
    assert bench_pairs.main() == 0
    # per workload: its untraced pairs, then three traced runs per side,
    # the sides alternating
    for workload in ("churn-dense", "targeted-core"):
        runs = [(tree, trace) for tree, w, trace in ran if w == workload]
        assert runs == [("base", False), ("change", False),
                        ("change", False), ("base", False)] + [
                        ("base", True), ("change", True)] * 3
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["workloads"]["churn-dense"]["layers"] == {
        "base": {"oracle.maxflows": 4}, "change": {"oracle.maxflows": 60}}
    assert doc["workloads"]["targeted-core"]["layers"] == {
        "base": {"oracle.maxflows": 4}, "change": {"oracle.maxflows": 6}}
    for work in doc["workloads"].values():
        assert work["pairs"] == 2


def test_traced_runs_take_one_second_and_keep_the_input_seed(monkeypatch):
    calls = []

    def run(cmd, **kwargs):
        calls.append(cmd)
        return types.SimpleNamespace(stdout=line(1.0, 70.0))

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    args = types.SimpleNamespace(seconds=20.0, input_seed=7)
    tree = REPO / "tree"
    for trace in (False, True):
        assert bench_pairs.run_bench(tree, "targeted-core", args,
                                     trace=trace)["failed"] == 1
    flags = [cmd[cmd.index("--workload"):] for cmd in calls]
    assert flags == [
        ["--workload", "targeted-core", "--trace", "0", "--seconds", "20.0",
         "--input-seed", "7"],
        ["--workload", "targeted-core", "--trace", "1", "--seconds", "1",
         "--input-seed", "7"]]
    assert all(cmd[1] == str(tree / "bench" / "run.py") for cmd in calls)
