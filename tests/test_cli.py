"""CLI subcommands: smoke runs, validation paths, idempotent outputs."""

from __future__ import annotations

import itertools
import json
import math
import re

import pytest
from click.testing import CliRunner

from fedsel.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def tiny_run_config(tmp_path, **overrides) -> str:
    cfg = {
        "population": {
            "client_count": 30,
            "class_count": 3,
            "feature_dim": 5,
            "label_concentration": 0.5,
            "sample_exponent": 1.8,
            "sample_min": 8,
            "sample_max": 40,
            "latency_log_mu": math.log(0.05),
            "latency_log_sigma": 0.8,
            "bandwidth_log_mu": math.log(1e4),
            "bandwidth_log_sigma": 0.5,
            "availability_min": 0.9,
            "availability_max": 1.0,
            "seed": 0,
            "test_samples": 200,
        },
        "selector": {"pacer_step": 5.0, "pacer_window": 3},
        "k": 4,
        "target": 0.5,
        "max_rounds": 6,
        "seeds": [1, 2],
        "policies": ["random", "guided"],
    }
    cfg.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_simulate_train_writes_tables_and_summary(runner, tmp_path):
    cfg = tiny_run_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate-train", "--config", cfg,
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "summary.tsv").exists()
    for policy in ("random", "guided"):
        for seed in (1, 2):
            table = out / f"run_{policy}_seed{seed}.tsv"
            assert table.exists()
    summary = (out / "summary.tsv").read_text().splitlines()
    assert summary[0].startswith("policy\truns")
    assert len(summary) == 3  # two policies


def test_simulate_train_idempotent_outputs(runner, tmp_path):
    cfg = tiny_run_config(tmp_path)
    out = tmp_path / "out"
    runner.invoke(main, ["simulate-train", "--config", cfg, "--out", str(out)])
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    runner.invoke(main, ["simulate-train", "--config", cfg, "--out", str(out)])
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_simulate_train_max_rounds_zero_reports_not_reached(runner, tmp_path):
    cfg = tiny_run_config(tmp_path, max_rounds=0, target=0.99)
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate-train", "--config", cfg,
                                  "--out", str(out)])
    assert result.exit_code == 0
    assert "reached 0/2" in result.output


def test_simulate_train_rejects_bad_field(runner, tmp_path):
    cfg = tiny_run_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate-train", "--config", cfg,
                                  "--out", str(out), "--k", "0"])
    assert result.exit_code != 0
    assert "k" in result.output


def test_simulate_train_missing_config_key(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"population": {}}))
    result = runner.invoke(main, ["simulate-train", "--config", str(path),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code != 0
    assert "selector" in result.output


@pytest.mark.parametrize("overrides, message", [
    ({"policies": ["clairvoyant"]}, "policies"),
    ({"selector": {"pacer_step": 5.0, "pacer_stepp": 3}}, "pacer_stepp"),
    ({"seeds": ["1"]}, "seeds"),
    ({"selector": {"pacer_step": 5.0, "straggler_penalty": math.nan}},
     "straggler_penalty"),
    ({"trace_path": "no-such-trace.tsv"}, "no-such-trace.tsv"),
    ({"k": "4"}, "k must be an integer"),
    ({"k": True}, "k must be an integer"),
    ({"target": "0.5"}, "target must be a number"),
    ({"target": False}, "target must be a number"),
    ({"max_rounds": "6"}, "max_rounds must be an integer"),
    ({"max_rounds": True}, "max_rounds must be an integer"),
    ({"max_rounds": -1}, "max_rounds must be an integer"),
    # An int path would be opened as a file descriptor.
    ({"trace_path": 987654}, "trace_path must be a string"),
], ids=["unknown_policy", "unknown_selector_key", "string_seed", "nan_selector",
        "missing_trace", "string_k", "bool_k", "string_target", "bool_target",
        "string_max_rounds", "bool_max_rounds", "negative_max_rounds",
        "int_trace_path"])
def test_simulate_train_rejects_bad_run_config(runner, tmp_path, overrides,
                                               message):
    cfg = tiny_run_config(tmp_path, **overrides)
    result = runner.invoke(main, ["simulate-train", "--config", cfg,
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.output


@pytest.mark.parametrize("text, message", [
    ("{\"k\": 4,", "not valid JSON"),
    ("3", "must be a JSON object, got int"),
    ("[1, 2]", "must be a JSON object, got list"),
    ("[" * 100_000, "not valid JSON"),
], ids=["not_json", "int", "list", "deep_nesting"])
def test_simulate_train_rejects_unreadable_run_config(runner, tmp_path, text,
                                                      message):
    path = tmp_path / "run.json"
    path.write_text(text)
    result = runner.invoke(main, ["simulate-train", "--config", str(path),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.output


def test_estimate_count_worked_example(runner):
    result = runner.invoke(main, ["estimate-count", "--epsilon", "10",
                                  "--delta", "0.95", "--population", "1000",
                                  "--range-min", "0", "--range-max", "100"])
    assert result.exit_code == 0
    assert "n = 131" in result.output


def test_estimate_count_near_one_confidence_no_overflow(runner):
    result = runner.invoke(main, ["estimate-count", "--epsilon", "10",
                                  "--delta", "0.999999", "--population", "1000",
                                  "--range-min", "0", "--range-max", "100"])
    assert result.exit_code == 0
    n = int(result.output.split("n = ")[1].split()[0])
    assert 131 <= n <= 1000


def test_estimate_count_with_validation(runner):
    result = runner.invoke(main, ["estimate-count", "--epsilon", "10",
                                  "--delta", "0.95", "--population", "1000",
                                  "--range-min", "0", "--range-max", "100",
                                  "--validate", "1000", "--seed", "5"])
    assert result.exit_code == 0, result.output
    rate = float(result.output.split("violation rate = ")[1].split()[0])
    assert rate <= 0.05


def test_estimate_count_rejects_negative_trials(runner):
    result = runner.invoke(main, ["estimate-count", "--epsilon", "10",
                                  "--delta", "0.95", "--population", "1000",
                                  "--range-min", "0", "--range-max", "100",
                                  "--validate", "-5"])
    assert result.exit_code == 2, result.output
    assert "--validate" in result.output


def test_estimate_count_rejects_unit_confidence(runner):
    result = runner.invoke(main, ["estimate-count", "--epsilon", "10",
                                  "--delta", "1.0", "--population", "1000",
                                  "--range-min", "0", "--range-max", "100"])
    assert result.exit_code != 0


def test_simulate_train_config_directory_is_a_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["simulate-train", "--config", str(tmp_path),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "is a directory" in result.output


def write_query_files(tmp_path, budget=3):
    caps = tmp_path / "caps.tsv"
    caps.write_text("client_id\tcategory\tcount\n"
                    "a\t0\t5\na\t1\t1\nb\t1\t5\nc\t0\t2\nc\t1\t2\n")
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"preference": [5, 5], "budget": budget}))
    return str(query), str(caps)


def test_compose_testset_writes_assignment(runner, tmp_path):
    query, caps = write_query_files(tmp_path)
    out = tmp_path / "assign.tsv"
    result = runner.invoke(main, ["compose-testset", "--query", query,
                                  "--capacities", caps, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "makespan" in result.output
    assert out.exists()


def test_compose_testset_exact_dominates(runner, tmp_path):
    query, caps = write_query_files(tmp_path)
    out = tmp_path / "assign.tsv"
    result = runner.invoke(main, ["compose-testset", "--query", query,
                                  "--capacities", caps, "--out", str(out),
                                  "--exact"])
    assert result.exit_code == 0, result.output
    greedy_makespan = float(result.output.split("greedy: makespan = ")[1].split()[0])
    exact_makespan = float(result.output.split("exact: makespan = ")[1].split()[0])
    assert exact_makespan <= greedy_makespan + 1e-9


def test_compose_testset_infeasible_lists_shortfall(runner, tmp_path):
    caps = tmp_path / "caps.tsv"
    caps.write_text("client_id\tcategory\tcount\na\t0\t2\n")
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"preference": [10], "budget": 1}))
    out = tmp_path / "assign.tsv"
    result = runner.invoke(main, ["compose-testset", "--query", str(query),
                                  "--capacities", str(caps), "--out", str(out)])
    assert result.exit_code != 0
    assert "short" in result.output
    assert not out.exists()


def write_overrun_query(tmp_path, budget):
    # Greedy opens with the balanced client c and then needs both a and b;
    # a and b alone cover the preference.
    caps = tmp_path / "caps.tsv"
    caps.write_text("client_id\tcategory\tcount\n"
                    "a\t0\t9\nb\t1\t9\nc\t0\t5\nc\t1\t5\n")
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"preference": [9, 9], "budget": budget}))
    return str(query), str(caps)


def test_compose_testset_exact_covers_within_budget_greedy_overruns(runner,
                                                                     tmp_path):
    query, caps = write_overrun_query(tmp_path, budget=2)
    out = tmp_path / "assign.tsv"
    args = ["compose-testset", "--query", query, "--capacities", caps,
            "--out", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert "cover needs 3 participants, budget is 2" in result.output
    assert not out.exists()

    result = runner.invoke(main, args + ["--exact"])
    assert result.exit_code == 0, result.output
    assert "greedy: cover needs 3 participants, budget is 2" in result.output
    assert "participants = 2" in result.output
    assert out.read_text() == ("client_id\tcategory\tsamples\n"
                               "a\t0\t9\nb\t1\t9\n")


def test_compose_testset_exact_without_cover_keeps_budget_error(runner, tmp_path):
    query, caps = write_overrun_query(tmp_path, budget=1)
    out = tmp_path / "assign.tsv"
    result = runner.invoke(main, ["compose-testset", "--query", query,
                                  "--capacities", caps, "--out", str(out),
                                  "--exact"])
    assert result.exit_code == 1, result.output
    assert "budget is 1" in result.output
    assert "no cover within it" in result.output
    assert not out.exists()


@pytest.mark.parametrize("case", ["bad_capacity", "nan_speed", "malformed_query",
                                  "huge_count", "deep_query"])
def test_compose_testset_bad_input_is_a_usage_error(runner, tmp_path, case):
    query, caps = write_query_files(tmp_path)
    clients = tmp_path / "clients.tsv"
    clients.write_text("client_id\tspeed\tbandwidth\ttransfer_bytes\n"
                       "a\t5.0\t1000\t10\n")
    if case == "bad_capacity":
        (tmp_path / "caps.tsv").write_text("client_id,category,count\na,x,5\n")
    elif case == "nan_speed":
        clients.write_text("client_id\tspeed\tbandwidth\ttransfer_bytes\n"
                           "a\tnan\t1000\t10\n")
    elif case == "malformed_query":
        (tmp_path / "query.json").write_text('{"preference": [5, 5], "budget"')
    elif case == "huge_count":
        (tmp_path / "caps.tsv").write_text(
            f"client_id,category,count\na,0,{2 ** 63}\n")
    else:
        (tmp_path / "query.json").write_text("[" * 100_000)
    out = tmp_path / "assign.tsv"
    result = runner.invoke(main, ["compose-testset", "--query", query,
                                  "--capacities", caps, "--clients", str(clients),
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "bad testing query" in result.output
    assert not out.exists()


@pytest.mark.parametrize("option", ["--query", "--capacities", "--clients"])
def test_compose_testset_directory_path_is_a_usage_error(runner, tmp_path,
                                                         option):
    query, caps = write_query_files(tmp_path)
    paths = {"--query": query, "--capacities": caps,
             "--out": str(tmp_path / "assign.tsv"), option: str(tmp_path)}
    result = runner.invoke(main, ["compose-testset",
                                  *itertools.chain(*paths.items())])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"'{option}'" in result.output and "is a directory" in result.output
    assert not (tmp_path / "assign.tsv").exists()


def test_compose_testset_reports_unmatched_client_rows(runner, tmp_path):
    query, caps = write_query_files(tmp_path)
    clients = tmp_path / "clients.tsv"
    clients.write_text("client_id\tspeed\tbandwidth\ttransfer_bytes\n"
                       "zz\t5.0\t1000\t10\n")
    out = tmp_path / "assign.tsv"
    result = runner.invoke(main, ["compose-testset", "--query", query,
                                  "--capacities", caps, "--clients", str(clients),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "clients: 1 rows did not match any client" in result.output
    # A table that covers every capacity client says nothing.
    clients.write_text("client_id\tspeed\tbandwidth\ttransfer_bytes\n"
                       "a\t5.0\t1000\t10\nb\t5.0\t1000\t10\n"
                       "c\t5.0\t1000\t10\n")
    result = runner.invoke(main, ["compose-testset", "--query", query,
                                  "--capacities", caps, "--clients", str(clients),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "did not match" not in result.output


def test_bench_cover_table(runner, tmp_path):
    out = tmp_path / "bench.tsv"
    result = runner.invoke(main, ["bench-cover", "--sizes", "5,30",
                                  "--seeds", "0", "--categories", "3",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "n_clients\tseed\tgreedy_seconds\texact_seconds\tmakespan_ratio"
    assert len(lines) == 3
    # N=5 solved exactly: ratio >= 1; N=30 above the guard
    n5 = lines[1].split("\t")
    assert float(n5[4]) >= 1.0 - 1e-9
    assert lines[2].split("\t")[3] == "guarded"


def test_bench_cover_solves_exact_at_greedy_budget(runner, tmp_path):
    out = tmp_path / "bench.tsv"
    result = runner.invoke(main, ["bench-cover", "--sizes", "5,8",
                                  "--seeds", "0,1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    counts = re.findall(r"greedy [\d.]+ ms \((\d+) participants\), "
                        r"exact [\d.]+ ms \((\d+) participants\)", result.output)
    rows = out.read_text().splitlines()[1:]
    assert len(counts) == len(rows) == 4
    for (greedy, exact), row in zip(counts, rows):
        assert int(exact) <= int(greedy)
        assert float(row.split("\t")[4]) >= 1.0 - 1e-9


@pytest.mark.parametrize("option, value", [
    ("--sizes", "abc"),
    ("--sizes", "0"),
    ("--categories", "0"),
    ("--categories", "-1"),
    ("--seeds", "x"),
], ids=["text_size", "zero_size", "zero_categories", "negative_categories",
        "text_seed"])
def test_bench_cover_bad_option_is_a_usage_error(runner, tmp_path, option,
                                                 value):
    args = {"--sizes": "5", "--seeds": "0", "--categories": "3"}
    args[option] = value
    result = runner.invoke(main, ["bench-cover", *itertools.chain(*args.items()),
                                  "--out", str(tmp_path / "bench.tsv")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert option in result.output
    assert not (tmp_path / "bench.tsv").exists()
