import json

import pytest

from densetrack.cli import main


def write_config(tmp_path, emit_log=False):
    conf = {
        "seed": 7,
        "graph": {"kind": "planted-dense", "n": 30, "clique": 10,
                  "noise_p": 0.03},
        "adversary": {"kind": "random-churn", "rate": 1, "mode": "balanced",
                      "protect": "backbone"},
        "protocol": {"epsilon": 1.0, "k": 0, "diameter": 2},
        "duration": {"passes": 2},
        "queries": {"mode": "per-pass", "k": 0},
        "report": {"emit_log": emit_log},
    }
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    return path


def test_run_and_replay(tmp_path, capsys):
    conf = write_config(tmp_path, emit_log=True)
    out = tmp_path / "out"
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["passes"] == 2 and summary["queries"] == 2
    assert (out / "report.json").exists()
    assert (out / "queries.csv").exists()
    assert main(["replay", "--replay", str(out / "events.ndjson")]) == 0
    assert "replay identical" in capsys.readouterr().out


def test_run_exact_counting_flag(tmp_path, capsys):
    conf = write_config(tmp_path)
    assert main(["run", "--config", str(conf), "--exact-counting"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["guarantee_failures"] == 0


def test_oracle_subcommand(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n0 2\n2 3\n")
    assert main(["oracle", "--graph", str(graph)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "maxflow"
    assert main(["oracle", "--graph", str(graph), "--k", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["density"] == "4/4" or out["density"] == "1/1"


def test_sweep_subcommand(capsys):
    code = main(["sweep", "--grid",
                 '{"epsilon": [1.0], "rate": [0], "n": [40]}',
                 "--passes", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row = json.loads(lines[0])
    assert row["ok"] is True


def test_sweep_jobs_print_the_rows_of_one_job(capsys):
    # the pool's rows are those of the serial loop, in the same order
    argv = ["sweep", "--grid", '{"epsilon": [1.0], "rate": [0], "n": [40, 50]}',
            "--passes", "1"]
    outs = []
    for jobs in ("1", "2"):
        assert main([*argv, "--jobs", jobs]) == 0
        outs.append(capsys.readouterr().out)
    assert len(outs[0].splitlines()) == 2 and outs[1] == outs[0]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_exit_two(capsys, jobs):
    # the one grid cell has no feasible clique, so nothing would run
    argv = ["sweep", "--grid", '{"rate": [3], "n": [10]}', "--jobs", jobs]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --jobs must be >= 1, got {jobs}"), err


def test_sweep_epsilon_out_of_range_exits_two(capsys):
    # a zero epsilon used to divide by zero while sizing the clique; a cell
    # with no feasible clique is still only skipped
    assert main(["sweep", "--grid", '{"epsilon": [0]}']) == 2
    assert ("error: grid.epsilon[0] must be a number > 0 and <= 1, got 0"
            in capsys.readouterr().err)
    assert main(["sweep", "--grid", '{"rate": [3], "n": [10]}']) == 0
    assert '"skipped": "no clique within n=10' in capsys.readouterr().out


def test_threshold_factor_override(tmp_path, capsys):
    # a factor above 2 drains levels completely, so passes shrink to a
    # single recorded level closed by the empty branch
    conf = {
        "seed": 2,
        "graph": {"kind": "clique-plus-noise", "n": 8, "clique": 8,
                  "extra_edges": 0},
        "adversary": None,
        "protocol": {"epsilon": 0.5, "k": 0, "diameter": 1,
                     "exact_counting": True},
        "duration": {"passes": 2},
        "queries": None,
        "report": {},
    }
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--threshold-factor", "2.5",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(p["closed_by"] == "empty" for p in report["passes"])
    capsys.readouterr()


def test_bad_config_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1, "graph": {"kind": "nope"},
                                "protocol": {"epsilon": 1.0},
                                "duration": {"passes": 1}}))
    assert main(["run", "--config", str(path)]) == 2


def test_bad_epsilon_exits_two(tmp_path, capsys):
    conf = json.loads(write_config(tmp_path).read_text())
    conf["protocol"]["epsilon"] = 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(conf))
    assert main(["run", "--config", str(path)]) == 2
    assert ("error: protocol.epsilon must be a number > 0 and <= 1, got 2"
            in capsys.readouterr().err)


def test_wrong_typed_value_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1,
                                "graph": {"kind": "gnp", "n": 10, "p": 0.5},
                                "protocol": {"epsilon": "x"},
                                "duration": {"passes": 1}}))
    assert main(["run", "--config", str(path)]) == 2
    assert "error: protocol.epsilon must be a number" in capsys.readouterr().err


def test_round_cap_exits_two(tmp_path, capsys):
    # a padded k=7 query on a K6 with four pendants, fired at round 58 of a
    # 60-round run, is still open at the cap
    graph = tmp_path / "pad.txt"
    graph.write_text("\n".join(
        [f"{i} {j}" for i in range(6) for j in range(i + 1, 6)]
        + [f"0 {v}" for v in (6, 7, 8, 9)]) + "\n")
    path = tmp_path / "capped.json"
    path.write_text(json.dumps({
        "seed": 4, "graph": {"kind": "edge-list", "path": str(graph)},
        "protocol": {"epsilon": 0.96, "k": 7, "diameter": "auto",
                     "exact_counting": True},
        "duration": {"rounds": 60},
        "queries": {"mode": "at-rounds", "rounds": [58], "k": 7}}))
    assert main(["run", "--config", str(path)]) == 2
    assert "hard round cap 60" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_missing_edge_list_exits_two(tmp_path, capsys, command):
    def argv(graph):
        if command == "oracle":
            return ["oracle", "--graph", str(graph)]
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({
            "seed": 1, "graph": {"kind": "edge-list", "path": str(graph)},
            "protocol": {"epsilon": 1.0}, "duration": {"passes": 1}}))
        return ["run", "--config", str(path)]

    missing = tmp_path / "nope.txt"
    assert main(argv(missing)) == 2
    assert f"error: cannot read edge list {missing}" in capsys.readouterr().err
    # a non-integer label
    labels = tmp_path / "labels.txt"
    labels.write_text("0 1\na b\n")
    assert main(argv(labels)) == 2
    assert "error: line 2: expected integer labels" in capsys.readouterr().err


@pytest.mark.parametrize("edges,args,message", [
    ("0 1\n1 2\n", ["--k", "5"], "k=5 exceeds node count 3"),
    ("0 1\n1 2\n", ["--k", "-2"], "--k must be >= 0, got -2"),
    ("", ["--n", "0"], "node_count must be positive"),
], ids=["k-above-n", "k-negative", "no-nodes"])
def test_bad_oracle_arguments_exit_two(tmp_path, capsys, edges, args,
                                       message):
    graph = tmp_path / "g.txt"
    graph.write_text(edges)
    assert main(["oracle", "--graph", str(graph), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


@pytest.mark.parametrize("command,flag,text,message", [
    ("run", "--config", None, "cannot read config"),
    ("run", "--config", "{seed: 1}", "is not JSON"),
    ("run", "--config", "[1, 2]", "must hold a JSON object"),
    ("sweep", "--grid", "{epsilon: [1.0]}", "sweep grid is not JSON"),
    ("sweep", "--grid", '{"n": 5}', "grid.n must be a list"),
    ("replay", "--replay", None, "cannot read event log"),
    ("replay", "--replay", '{"event": "config"\n', "header is not JSON"),
    ("replay", "--replay", "[1]\n", "lacks a config header"),
], ids=["config-missing", "config-not-json", "config-not-object",
        "grid-not-json", "grid-value-not-list", "log-missing",
        "log-header-not-json", "log-header-not-object"])
def test_bad_input_file_exits_two(tmp_path, capsys, command, flag, text,
                                  message):
    # the sweep grid is the argument itself; the others name a file
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    arg = text if command == "sweep" else str(path)
    assert main([command, flag, arg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_override_into_non_object_section_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1,
                                "graph": {"kind": "gnp", "n": 10, "p": 0.5},
                                "protocol": 5, "duration": {"passes": 1}}))
    assert main(["run", "--config", str(path), "--exact-counting"]) == 2
    assert "error: protocol must be a JSON object" in capsys.readouterr().err
