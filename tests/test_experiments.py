"""Shared experiment helpers: summaries, tta extraction, canonical configs."""

from __future__ import annotations

import pytest

from fedsel import experiments
from fedsel.experiments import (RunSetup, canonical_population_spec,
                                canonical_selector_config, run_fixed_rounds,
                                summarize, time_to_accuracy,
                                write_summary_table)
from fedsel.simulation import RoundResult, TrainingSession, TrainRecord
from fedsel.workload import generate_population


def fake_record(policy: str, seed: int, accs, walls, reached=True) -> TrainRecord:
    rounds = tuple(
        RoundResult(round_index=i + 1, invited=(), completers=("x",),
                    utilities=(1.0,), durations=(w,), wall_time=w,
                    accuracy=a, preferred_duration=1.0)
        for i, (a, w) in enumerate(zip(accs, walls)))
    return TrainRecord(policy=policy, seed=seed, target=0.5, reached=reached,
                       rounds_used=len(rounds), wall_clock=sum(walls),
                       rounds=rounds)


def test_time_to_accuracy_first_crossing():
    rec = fake_record("p", 1, [0.1, 0.3, 0.6, 0.7], [10, 10, 10, 10])
    assert time_to_accuracy(rec, 0.5) == (3, 30.0)
    assert time_to_accuracy(rec, 0.9) is None


def test_summarize_groups_by_policy():
    records = [fake_record("a", 1, [0.2], [5.0]),
               fake_record("a", 2, [0.2], [7.0]),
               fake_record("b", 1, [0.2], [1.0], reached=False)]
    rows = summarize(records)
    assert [r["policy"] for r in rows] == ["a", "b"]
    row_a = rows[0]
    assert row_a["runs"] == 2
    assert row_a["wall_clock_mean"] == pytest.approx(6.0)
    assert row_a["wall_clock_std"] == pytest.approx(1.0)
    assert rows[1]["reached"] == 0


def test_write_summary_table(tmp_path):
    rows = summarize([fake_record("a", 1, [0.2], [5.0])])
    path = tmp_path / "summary.tsv"
    write_summary_table(str(path), rows)
    lines = path.read_text().splitlines()
    assert lines[0].split("\t")[0] == "policy"
    assert lines[1].split("\t")[0] == "a"


def test_canonical_spec_matches_pinned_parameters():
    spec = canonical_population_spec(3)
    assert spec.client_count == 1000
    assert spec.class_count == 10
    assert spec.label_concentration == pytest.approx(0.3)
    assert spec.latency_log_sigma == pytest.approx(1.0)
    assert spec.seed == 3
    cfg = canonical_selector_config()
    assert cfg.pacer_window == 20
    assert cfg.blacklist_threshold == 10


def test_run_fixed_rounds_small_smoke():
    spec = canonical_population_spec(0, client_count=40, test_samples=200)
    cfg = canonical_selector_config(pacer_window=3)
    rec = run_fixed_rounds(RunSetup(policy="guided", seed=0, k=4, rounds=5),
                           spec=spec, config=cfg)
    assert rec.rounds_used == 5
    assert len(rec.utility_history) == 5
    assert rec.wall_clock == pytest.approx(
        sum(r.wall_time for r in rec.rounds))


def test_run_fixed_rounds_applies_noise_and_fairness():
    spec = canonical_population_spec(0, client_count=40, test_samples=200)
    cfg = canonical_selector_config(pacer_window=3)
    base = run_fixed_rounds(RunSetup(policy="guided", seed=0, k=4, rounds=6),
                            spec=spec, config=cfg)
    noisy = run_fixed_rounds(RunSetup(policy="guided", seed=0, k=4, rounds=6),
                             spec=spec,
                             config=canonical_selector_config(
                                 pacer_window=3, noise_epsilon=2.0))
    completers = lambda rec: [r.completers for r in rec.rounds]
    assert completers(base) != completers(noisy)


def test_run_fixed_rounds_runs_the_config_as_given(monkeypatch):
    # The run setup holds no selector setting, so the config is run as given.
    sessions = []

    class Recorded(TrainingSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    monkeypatch.setattr(experiments, "TrainingSession", Recorded)
    spec = canonical_population_spec(0, client_count=40, test_samples=200)
    cfg = canonical_selector_config(pacer_window=3, fairness_weight=0.5,
                                    noise_epsilon=0.3)
    run_fixed_rounds(RunSetup(policy="guided", seed=0, k=4, rounds=1),
                     spec=spec, config=cfg)
    assert [s.selector.config for s in sessions] == [cfg]


def test_fixed_rounds_and_unreached_target_build_the_same_record():
    spec = canonical_population_spec(0, client_count=40, test_samples=200)
    cfg = canonical_selector_config(pacer_window=3)
    fixed = run_fixed_rounds(RunSetup(policy="guided", seed=0, k=4, rounds=6),
                             spec=spec, config=cfg)
    session = TrainingSession(generate_population(spec), "guided", cfg, 4, 0)
    capped = session.train_to_target(0.9999, max_rounds=6)
    assert not capped.reached
    assert capped.rounds == fixed.rounds
    assert capped.wall_clock == fixed.wall_clock
    assert capped.utility_history == fixed.utility_history
    assert len(capped.utility_history) == 6


def test_restored_session_at_target_keeps_the_utility_history():
    spec = canonical_population_spec(0, client_count=40, test_samples=200)
    cfg = canonical_selector_config(pacer_window=3)
    base = TrainingSession(generate_population(spec), "guided", cfg, 4, 0)
    base.run_rounds(3)
    resumed = TrainingSession(generate_population(spec), "guided", cfg, 4, 0)
    resumed.restore(base.snapshot())
    record = resumed.train_to_target(0.0, max_rounds=5)
    assert record.reached and record.rounds_used == 0
    assert record.wall_clock == base.wall_clock
    assert record.utility_history == base.store.view().utility_history
    assert len(record.utility_history) == 3
