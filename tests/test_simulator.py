"""Round mechanics, determinism, corruption and fairness metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fedsel import model
from fedsel.simulation import (POLICIES, TrainingSession, corrupt_clients,
                               fairness_metrics, write_metrics_table)
from fedsel.training import SelectorConfig
from fedsel.workload import PopulationSpec, generate_population


def small_spec(**overrides) -> PopulationSpec:
    base = dict(
        client_count=40,
        class_count=4,
        feature_dim=6,
        label_concentration=0.5,
        sample_exponent=1.8,
        sample_min=10,
        sample_max=60,
        latency_log_mu=math.log(0.05),
        latency_log_sigma=0.8,
        bandwidth_log_mu=math.log(1e4),
        bandwidth_log_sigma=0.5,
        availability_min=0.9,
        availability_max=1.0,
        seed=3,
        test_samples=300,
    )
    base.update(overrides)
    return PopulationSpec(**base)


def make_session(policy="guided", seed=0, k=5, spec=None, **kwargs):
    world = generate_population(spec or small_spec())
    cfg = kwargs.pop("config", SelectorConfig(pacer_step=5.0, pacer_window=3))
    return TrainingSession(world, policy, cfg, k, seed, **kwargs)


def test_round_invites_and_completion_rule():
    session = make_session(policy="random", k=5)
    result = session.run_round()
    assert len(result.invited) <= math.ceil(1.3 * 5)
    assert len(result.completers) == 5
    assert result.wall_time == max(result.durations)
    # completers are the fastest k of the invited cohort
    all_durations = sorted(result.durations)
    assert list(result.durations) == all_durations


def test_round_wall_time_is_kth_order_statistic():
    session = make_session(policy="random", k=5, seed=2)
    world = session.world
    result = session.run_round()
    durations = []
    for cid in result.invited:
        client = world.clients[cid]
        durations.append(client.sample_count * client.compute_latency
                         + model.model_bytes(session.weights) / client.bandwidth)
    assert result.wall_time == pytest.approx(sorted(durations)[4])


def test_identical_speeds_complete_in_id_order():
    world = generate_population(small_spec())
    for client in world.clients.values():
        client.compute_latency = 0.1
        client.bandwidth = 1e6
        client.features = client.features[:10]
        client.labels = client.labels[:10]
        client.availability = 1.0
    cfg = SelectorConfig(pacer_step=5.0)
    session = TrainingSession(world, "random", cfg, 5, seed=1)
    result = session.run_round()
    # identical durations: ties broken by client id
    assert list(result.completers) == sorted(result.invited)[:5]


def test_straggler_excluded_from_completers():
    spec = small_spec()
    world = generate_population(spec)
    slowest = max(world.clients, key=lambda c: world.clients[c].compute_latency)
    world.clients[slowest].compute_latency *= 100
    cfg = SelectorConfig(pacer_step=5.0)
    session = TrainingSession(world, "random", cfg, 5, seed=1)
    for _ in range(6):
        result = session.run_round()
        if slowest in result.invited and len(result.invited) > 5:
            assert slowest not in result.completers
            return
    pytest.skip("straggler never invited in six rounds")


def test_clock_accumulates_round_walls():
    session = make_session(policy="random")
    walls = [session.run_round().wall_time for _ in range(5)]
    assert session.wall_clock == pytest.approx(sum(walls))


def test_identical_seeds_identical_trajectories():
    a = make_session(policy="guided", seed=11)
    b = make_session(policy="guided", seed=11)
    for _ in range(6):
        ra, rb = a.run_round(), b.run_round()
        assert ra.completers == rb.completers
        assert ra.accuracy == rb.accuracy
        assert ra.wall_time == rb.wall_time


def test_policies_all_run():
    for policy in POLICIES:
        session = make_session(policy=policy, seed=4)
        result = session.run_round()
        assert len(result.completers) >= 1


def test_invalid_policy_rejected():
    with pytest.raises(ValueError):
        make_session(policy="clairvoyant")


def test_aggregation_is_mean_of_completer_models():
    session = make_session(policy="random", seed=5, k=4)
    world = session.world
    start = session.weights.copy()
    lr = session.learning_rate / (1.0 + 1 / session.lr_decay_rounds)
    result = session.run_round()
    locals_ = []
    for cid in result.completers:
        client = world.clients[cid]
        rng = np.random.default_rng([5, 1, 5, session._index[cid]])
        new_w, _, _ = model.local_epoch(start, client.features, client.labels,
                                        lr, session.batch_size, rng)
        locals_.append(new_w)
    expected = np.stack(locals_).mean(axis=0)
    scale = max(1.0, np.abs(expected).max())
    assert np.abs(session.weights - expected).max() / scale <= 1e-9


def test_feedback_reaches_store():
    session = make_session(policy="guided", seed=6, k=4)
    result = session.run_round()
    view = session.store.view()
    for cid, utility, duration in zip(result.completers, result.utilities,
                                      result.durations):
        rec = view.records[cid]
        assert rec.explored
        assert rec.last_round == 1
        assert rec.duration == duration
        assert rec.stat_utility <= utility  # clipping can only reduce


def test_gradient_norm_mode_runs():
    cfg = SelectorConfig(pacer_step=5.0, utility_mode="gradient_norm_batches")
    session = make_session(policy="guided", seed=6, config=cfg)
    result = session.run_round()
    assert all(u >= 0 for u in result.utilities)


def test_train_to_target_zero_target_is_immediate():
    session = make_session(policy="random")
    record = session.train_to_target(0.0, max_rounds=50)
    assert record.reached and record.rounds_used == 0


def test_train_to_target_max_rounds_zero_not_reached():
    session = make_session(policy="random")
    record = session.train_to_target(0.9, max_rounds=0)
    assert not record.reached and record.rounds_used == 0


def test_train_to_target_unreachable_flagged():
    session = make_session(policy="random")
    record = session.train_to_target(0.9999, max_rounds=3)
    assert not record.reached
    assert record.rounds_used == 3


def test_session_checkpoint_resume_is_identical():
    base = make_session(policy="guided", seed=13)
    for _ in range(4):
        base.run_round()
    checkpoint = base.snapshot()
    straight = [base.run_round() for _ in range(3)]

    resumed = make_session(policy="guided", seed=13)
    resumed.restore(checkpoint)
    replayed = [resumed.run_round() for _ in range(3)]
    for a, b in zip(straight, replayed):
        assert a.completers == b.completers
        assert a.accuracy == b.accuracy
        assert a.wall_time == b.wall_time
    assert base.wall_clock == pytest.approx(resumed.wall_clock)


def test_blacklisted_clients_eventually_excluded():
    cfg = SelectorConfig(pacer_step=5.0, blacklist_threshold=2)
    session = make_session(policy="guided", seed=7, k=6, config=cfg)
    for _ in range(12):
        black_before = session.blacklisted_ids
        result = session.run_round()
        assert not set(result.invited) & black_before
    assert session.blacklisted_ids  # threshold 2 trips quickly


def test_corrupt_mode_a_flips_all_labels_of_fraction():
    world = generate_population(small_spec())
    originals = {cid: world.clients[cid].labels.copy()
                 for cid in world.client_ids()}
    corrupt_clients(world, fraction=0.5, seed=1)
    flagged = [cid for cid in world.client_ids() if world.clients[cid].corrupted]
    assert len(flagged) == 20
    for cid in flagged:
        assert np.all(world.clients[cid].labels != originals[cid])
    for cid in set(world.client_ids()) - set(flagged):
        assert np.array_equal(world.clients[cid].labels, originals[cid])


def test_corrupt_fraction_one_flags_everyone():
    world = generate_population(small_spec())
    corrupt_clients(world, fraction=1.0, seed=2)
    assert all(c.corrupted for c in world.clients.values())


def test_corrupt_rate_zero_is_identity():
    world = generate_population(small_spec())
    originals = {cid: world.clients[cid].labels.copy()
                 for cid in world.client_ids()}
    corrupt_clients(world, flip_rate=0.0, seed=3)
    assert not any(c.corrupted for c in world.clients.values())
    for cid, labels in originals.items():
        assert np.array_equal(world.clients[cid].labels, labels)


def test_corrupt_mode_b_flips_subset():
    world = generate_population(small_spec())
    originals = {cid: world.clients[cid].labels.copy()
                 for cid in world.client_ids()}
    corrupt_clients(world, flip_rate=0.3, seed=4)
    for cid in world.client_ids():
        diff = world.clients[cid].labels != originals[cid]
        n = originals[cid].size
        assert diff.sum() == int(round(0.3 * n))


def test_corrupt_requires_exactly_one_mode():
    world = generate_population(small_spec())
    with pytest.raises(ValueError):
        corrupt_clients(world)
    with pytest.raises(ValueError):
        corrupt_clients(world, fraction=0.1, flip_rate=0.1)


def test_fairness_metrics_round_robin_is_zero():
    ids = [f"c{i}" for i in range(6)]
    history = [tuple(ids[i:i + 2]) for i in range(0, 6, 2)] * 4
    assert fairness_metrics(history, ids) == 0.0


def test_fairness_metrics_concentrated_is_maximal():
    ids = ["a", "b", "c", "d"]
    concentrated = [("a",)] * 8
    spread = [("a",), ("b",), ("c",), ("d",)] * 2
    v_conc = fairness_metrics(concentrated, ids)
    v_spread = fairness_metrics(spread, ids)
    assert v_conc > v_spread == 0.0


def test_fairness_metrics_excludes_blacklisted():
    ids = ["a", "b", "c"]
    history = [("a",)] * 10 + [("b",), ("c",)]
    v = fairness_metrics(history, ids, blacklisted={"a"})
    assert v == pytest.approx(np.var([1, 1]))


def test_fairness_metrics_requires_history():
    with pytest.raises(ValueError):
        fairness_metrics([], ["a"])


def test_metrics_table_format(tmp_path):
    session = make_session(policy="random")
    record = session.train_to_target(0.99, max_rounds=3)
    path = tmp_path / "run.tsv"
    write_metrics_table(str(path), record)
    lines = path.read_text().splitlines()
    assert lines[0] == ("round\twall_clock_s\ttest_accuracy\tmean_utility"
                        "\tpreferred_duration\tparticipants")
    assert len(lines) == 1 + 3
    clock = float(lines[-1].split("\t")[1])
    assert clock == pytest.approx(session.wall_clock)


def test_availability_zero_round_is_idle():
    spec = small_spec(availability_min=0.9, availability_max=1.0)
    world = generate_population(spec)
    for client in world.clients.values():
        client.availability = 1e-12
    cfg = SelectorConfig(pacer_step=5.0)
    session = TrainingSession(world, "random", cfg, 5, seed=1)
    result = session.run_round()
    assert result.completers == ()
    assert result.wall_time == 0.0


def test_resumed_session_reports_same_fairness_as_uninterrupted():
    straight = make_session(policy="guided", seed=4)
    straight.run_rounds(6)
    base = make_session(policy="guided", seed=4)
    base.run_rounds(3)
    checkpoint = base.snapshot()
    resumed = make_session(policy="guided", seed=4)
    resumed.restore(checkpoint)
    resumed.run_rounds(3)
    ids = straight.world.client_ids()
    assert resumed.selection_history == straight.selection_history
    assert (fairness_metrics(resumed.selection_history, ids,
                             resumed.blacklisted_ids)
            == fairness_metrics(straight.selection_history, ids,
                                straight.blacklisted_ids))
