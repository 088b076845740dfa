"""CLI subcommands: smoke runs, validation paths, idempotent outputs."""

from __future__ import annotations

import hashlib
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


def test_simulate_train_verbose_tables_digest(runner, tmp_path):
    # Pins every byte of the per-client utility tables and the run tables
    # over eight rounds, none of which reaches the target.
    cfg = tiny_run_config(tmp_path, target=0.99, max_rounds=8,
                          selector={"pacer_step": 5.0, "pacer_window": 3,
                                    "fairness_weight": 0.2})
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate-train", "--config", cfg,
                                  "--out", str(out), "--verbose"])
    assert result.exit_code == 0, result.output
    tables = sorted([*out.glob("utilities_*.tsv"), *out.glob("run_*.tsv")])
    # The random policy never calls the selector, so it writes no utilities.
    assert [t.name for t in tables if t.name.startswith("utilities_")] == [
        "utilities_guided_seed1.tsv", "utilities_guided_seed2.tsv"]
    assert len(tables) == 6
    digest = hashlib.sha256()
    for table in tables:
        digest.update(f"{table.name}\n".encode())
        digest.update(table.read_bytes())
    assert digest.hexdigest() == (
        "6becd71ffacedc1204b13171fc1492c489f3ba49ed1b99c9c7166e80a1441398")


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
    # A fractional window would pass the range check and crash the pacer.
    ({"selector": {"pacer_step": 5.0, "pacer_window": 2.5}},
     "pacer_window must be an integer"),
    ({"selector": {"pacer_step": 5.0, "blacklist_threshold": 2.5}},
     "blacklist_threshold must be an integer"),
], ids=["unknown_policy", "unknown_selector_key", "string_seed", "nan_selector",
        "missing_trace", "string_k", "bool_k", "string_target", "bool_target",
        "string_max_rounds", "bool_max_rounds", "negative_max_rounds",
        "int_trace_path", "fractional_pacer_window",
        "fractional_blacklist_threshold"])
def test_simulate_train_rejects_bad_run_config(runner, tmp_path, overrides,
                                               message):
    cfg = tiny_run_config(tmp_path, **overrides)
    result = runner.invoke(main, ["simulate-train", "--config", cfg,
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.output
    assert not list(tmp_path.glob("**/run_*.tsv"))


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


def test_simulate_train_out_file_is_a_usage_error(runner, tmp_path):
    cfg = tiny_run_config(tmp_path)
    out = tmp_path / "out"
    out.write_text("keep")
    result = runner.invoke(main, ["simulate-train", "--config", cfg,
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "'--out'" in result.output and "is a file" in result.output
    assert out.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "run.json"]


@pytest.mark.parametrize("below", ["sub", "sub/deeper"])
def test_simulate_train_out_under_a_file_is_a_usage_error(runner, tmp_path,
                                                          below):
    cfg = tiny_run_config(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("keep")
    result = runner.invoke(main, ["simulate-train", "--config", cfg,
                                  "--out", str(afile / below)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "'--out'" in result.output and "is not a directory" in result.output
    assert afile.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.json"]


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


def test_compose_testset_out_directory_is_a_usage_error(runner, tmp_path):
    query, caps = write_query_files(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    result = runner.invoke(main, ["compose-testset", "--query", query,
                                  "--capacities", caps, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "'--out'" in result.output and "is a directory" in result.output
    assert list(out.iterdir()) == []


def out_in_missing_directory_or_under_file(tmp_path, where):
    """An ``--out`` path whose parent is missing, or is a file."""
    if where == "missing":
        return tmp_path / "missing" / "x.tsv", "does not exist"
    (tmp_path / "afile").write_text("keep")
    return tmp_path / "afile" / "x.tsv", "is not a directory"


@pytest.mark.parametrize("where", ["missing", "file"])
def test_compose_testset_out_without_directory_is_a_usage_error(runner, tmp_path,
                                                                 where):
    query, caps = write_query_files(tmp_path)
    out, problem = out_in_missing_directory_or_under_file(tmp_path, where)
    before = sorted(p.name for p in tmp_path.iterdir())
    result = runner.invoke(main, ["compose-testset", "--query", query,
                                  "--capacities", caps, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "'--out'" in result.output and problem in result.output
    assert "greedy" not in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def compose_from(runner, tmp_path, capacity_rows: str, descriptor: dict):
    caps = tmp_path / "caps.tsv"
    caps.write_text("client_id\tcategory\tcount\n" + capacity_rows)
    query = tmp_path / "query.json"
    query.write_text(json.dumps(descriptor))
    out = tmp_path / "assign.tsv"
    result = runner.invoke(main, ["compose-testset", "--query", str(query),
                                  "--capacities", str(caps), "--out", str(out)])
    return result, out


def test_compose_testset_uses_a_count_above_its_demand_as_the_demand(runner,
                                                                      tmp_path):
    result, out = compose_from(runner, tmp_path,
                               "a\t0\t1099511627776\nb\t1\t4\n",
                               {"preference": [2, 2], "budget": 2})
    assert result.exit_code == 0, result.output
    assert "makespan = 1.2000 s" in result.output
    assert out.read_text() == ("client_id\tcategory\tsamples\n"
                               "a\t0\t2\nb\t1\t2\n")


@pytest.mark.parametrize("descriptor", [
    {"preference": [2 ** 30, 2 ** 30], "budget": 2},
    {"representative_samples": 2 ** 31, "budget": 2},
    {"representative_samples": 10 ** 400, "budget": 2},  # past any float
], ids=["preference", "representative", "representative_past_float"])
def test_compose_testset_preference_total_of_2_31_is_a_usage_error(
        runner, tmp_path, descriptor):
    result, out = compose_from(runner, tmp_path,
                               "a\t0\t1099511627776\nb\t1\t4\n", descriptor)
    assert result.exit_code == 2, result.output
    assert "bad testing query" in result.output
    assert not out.exists()


def test_compose_testset_representative_totals_do_not_wrap(runner, tmp_path):
    # Category 0 totals 2^64 samples, which an int64 sum wraps to 0.
    rows = "".join(f"{c}\t0\t{2 ** 62}\n" for c in "abcd") + "e\t1\t10\n"
    result, out = compose_from(runner, tmp_path, rows,
                               {"representative_samples": 4, "budget": 5})
    assert result.exit_code == 0, result.output
    assert out.read_text() == "client_id\tcategory\tsamples\na\t0\t4\n"


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


def test_bench_cover_out_directory_is_a_usage_error(runner, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    result = runner.invoke(main, ["bench-cover", "--sizes", "5", "--seeds", "0",
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "'--out'" in result.output and "is a directory" in result.output
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("where", ["missing", "file"])
def test_bench_cover_out_without_directory_is_a_usage_error(runner, tmp_path,
                                                            where):
    out, problem = out_in_missing_directory_or_under_file(tmp_path, where)
    before = sorted(p.name for p in tmp_path.iterdir())
    result = runner.invoke(main, ["bench-cover", "--sizes", "5", "--seeds", "0",
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "'--out'" in result.output and problem in result.output
    assert "N=5" not in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == before
