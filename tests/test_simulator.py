"""Round mechanics, determinism, corruption and fairness metrics."""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np
import pytest

from fedsel import model
from fedsel.errors import CheckpointError, FedselError
from fedsel.simulation import (POLICIES, TrainingSession, corrupt_clients,
                               fairness_metrics, write_metrics_table)
from fedsel.training import (SelectorConfig, gradient_norm_utility,
                             statistical_utility)
from fedsel.workload import PopulationSpec, SimWorld, generate_population


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
    for row in np.searchsorted(world.ids, result.invited):
        durations.append(world.sample_counts[row] * world.compute_latency[row]
                         + model.model_bytes(session.weights)
                         / world.bandwidth[row])
    assert result.wall_time == pytest.approx(sorted(durations)[4])


def test_identical_speeds_complete_in_id_order():
    source = generate_population(small_spec())
    n = len(source.ids)
    first_ten = (source.offsets[:-1, None] + np.arange(10)).ravel()
    world = SimWorld(
        ids=source.ids, offsets=np.arange(n + 1) * 10,
        features=source.features[first_ten], labels=source.labels[first_ten],
        compute_latency=np.full(n, 0.1), bandwidth=np.full(n, 1e6),
        availability=np.ones(n), corrupted=np.zeros(n, dtype=bool),
        class_count=source.class_count, feature_dim=source.feature_dim,
        test_features=source.test_features, test_labels=source.test_labels,
        seed=source.seed)
    cfg = SelectorConfig(pacer_step=5.0)
    session = TrainingSession(world, "random", cfg, 5, seed=1)
    result = session.run_round()
    # identical durations: ties broken by client id
    assert list(result.completers) == sorted(result.invited)[:5]


def test_straggler_excluded_from_completers():
    spec = small_spec()
    world = generate_population(spec)
    row = int(np.argmax(world.compute_latency))
    slowest = world.ids[row]
    world.compute_latency[row] *= 100
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
    rng = np.random.default_rng([5, 1, 5])
    for row in np.searchsorted(world.ids, result.completers).tolist():
        features, labels = world.shard(row)
        (new_w,), _, _ = model.local_epoch(start, features, labels,
                                           [labels.size], lr,
                                           session.batch_size, [0],
                                           [rng.permutation(labels.size)])
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
        row = view.slots[cid]
        assert view.table.explored[row]
        assert view.table.last_round[row] == 1
        assert view.table.duration[row] == duration
        assert view.table.stat_utility[row] <= utility  # clipping can only reduce


def test_gradient_norm_mode_runs():
    cfg = SelectorConfig(pacer_step=5.0, utility_mode="gradient_norm_batches")
    session = make_session(policy="guided", seed=6, config=cfg)
    result = session.run_round()
    assert all(u >= 0 for u in result.utilities)


@pytest.mark.parametrize("mode", ["loss_based", "gradient_norm_batches"])
def test_utilities_equal_the_per_client_forms_exactly(monkeypatch, mode):
    calls = []   # (sizes, losses, batch norms) of every local_epoch call
    epoch = model.local_epoch

    def spy(*args, **kwargs):
        out = epoch(*args, **kwargs)
        calls.append((list(args[3]), out[1], out[2]))
        return out

    monkeypatch.setattr(model, "local_epoch", spy)
    cfg = SelectorConfig(pacer_step=1.0, pacer_window=2, utility_mode=mode)
    session = make_session(policy="guided", seed=9, k=5, config=cfg)
    trained = 0
    for result in session.run_rounds(12):
        if not result.completers:
            continue
        sizes, losses, norms = calls[trained]
        trained += 1
        if mode == "loss_based":
            want = [statistical_utility(part) for part in
                    np.split(losses, np.cumsum(sizes)[:-1])]
        else:
            want = [gradient_norm_utility(n) for n in norms]
        assert list(map(float.hex, result.utilities)) \
            == list(map(float.hex, want))
    assert trained == len(calls) > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-300])
def test_round_rejects_a_loss_that_is_not_finite_and_nonnegative(
        monkeypatch, bad):
    epoch = model.local_epoch

    def corrupt(*args, **kwargs):
        models, losses, norms = epoch(*args, **kwargs)
        losses[-1] = bad
        return models, losses, norms

    monkeypatch.setattr(model, "local_epoch", corrupt)
    session = make_session(policy="guided", seed=6)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        session.run_round()


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
        table = session.store.view().table
        black_before = {table.ids[row]
                        for row in np.flatnonzero(table.blacklisted)}
        result = session.run_round()
        assert not set(result.invited) & black_before
    assert session.store.view().table.blacklisted.any()  # threshold 2 trips quickly


def test_corrupt_mode_a_flips_all_labels_of_fraction():
    world = generate_population(small_spec())
    originals = world.labels.copy()
    corrupt_clients(world, fraction=0.5, seed=1)
    assert world.corrupted.sum() == 20
    for row, flagged in enumerate(world.corrupted):
        lo, hi = world.offsets[row], world.offsets[row + 1]
        changed = world.labels[lo:hi] != originals[lo:hi]
        assert np.all(changed) if flagged else not np.any(changed)


def test_corrupt_fraction_one_flags_everyone():
    world = generate_population(small_spec())
    corrupt_clients(world, fraction=1.0, seed=2)
    assert world.corrupted.all()


def test_corrupt_rate_zero_is_identity():
    world = generate_population(small_spec())
    originals = world.labels.copy()
    corrupt_clients(world, flip_rate=0.0, seed=3)
    assert not world.corrupted.any()
    assert np.array_equal(world.labels, originals)


def test_corrupt_mode_b_flips_subset():
    world = generate_population(small_spec())
    originals = world.labels.copy()
    corrupt_clients(world, flip_rate=0.3, seed=4)
    for lo, hi in zip(world.offsets[:-1], world.offsets[1:]):
        diff = world.labels[lo:hi] != originals[lo:hi]
        assert diff.sum() == int(round(0.3 * (hi - lo)))


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
    world.availability[:] = 1e-12
    cfg = SelectorConfig(pacer_step=5.0)
    session = TrainingSession(world, "random", cfg, 5, seed=1)
    result = session.run_round()
    assert result.completers == ()
    assert result.wall_time == 0.0


def test_selector_without_feasible_clients_idles_the_round(caplog):
    cfg = SelectorConfig(pacer_step=5.0, blacklist_threshold=1)
    session = make_session(policy="guided", seed=2, k=40, config=cfg)
    results = session.run_rounds(6)
    assert session.store.view().table.blacklisted.sum() == 40
    assert "no feasible clients" in caplog.text
    assert results[-1].invited == results[-1].completers == ()
    assert results[-1].wall_time == 0.0


RESUME_ROUNDS = 12


def resume_session(policy: str) -> TrainingSession:
    # The short pacer step and window let the pacer act inside the run.
    return make_session(policy=policy, seed=8, k=6,
                        spec=small_spec(client_count=80),
                        config=SelectorConfig(pacer_step=1.0, pacer_window=2))


def session_outcome(session: TrainingSession, rounds: list) -> tuple:
    return (rounds, session.weights.tobytes(), session.wall_clock,
            session.store.snapshot())


@functools.cache
def straight_outcome(policy: str) -> tuple:
    session = resume_session(policy)
    return session_outcome(session, session.run_rounds(RESUME_ROUNDS))


@pytest.mark.parametrize("stop", [0, 1, 4, 9])
@pytest.mark.parametrize("policy", POLICIES)
def test_resume_at_any_round_replays_the_whole_record(policy, stop):
    base = resume_session(policy)
    rounds = base.run_rounds(stop)
    resumed = resume_session(policy)
    resumed.restore(base.snapshot())
    rounds += resumed.run_rounds(RESUME_ROUNDS - stop)
    assert session_outcome(resumed, rounds) == straight_outcome(policy)


# -- golden round-engine digests ------------------------------------------------


GOLDEN_ROUNDS = 8


def golden_session(policy: str, **config) -> TrainingSession:
    return make_session(policy=policy, seed=9, k=5,
                        config=SelectorConfig(pacer_step=1.0, pacer_window=2,
                                              **config))


def round_engine_digest(policy: str, **config) -> str:
    """Fold every RoundResult field, the final weights, the clock and the
    utility history of a short seeded run into one digest.

    The short pacer step puts stragglers behind the preferred duration. The
    two-round window lets the pacer fire from round 5 on; on this seed it first
    fires at round 11, so ``guided`` and ``guided_no_pacer`` share a digest
    here and :func:`test_pacer_steps_the_guided_session` tells them apart.
    """
    session = golden_session(policy, **config)
    digest = hashlib.sha256()
    for _ in range(GOLDEN_ROUNDS):
        r = session.run_round()
        digest.update(repr((r.round_index, r.invited, r.completers, r.utilities,
                            r.durations, r.wall_time, r.accuracy,
                            r.preferred_duration)).encode())
    digest.update(session.weights.tobytes())
    digest.update(repr((session.wall_clock,
                        session.store.view().utility_history)).encode())
    return digest.hexdigest()


GOLDEN_ROUND_DIGESTS = {
    "random":
        "83682c4ea9a43f6442125ab41db267ca37476c0a0415e37f7429fbc2dd428d41",
    "guided":
        "5839af44d14d3471cb432130c8866444fb21b1bf837a0c65e953af9d162f48f5",
    "guided_no_pacer":
        "5839af44d14d3471cb432130c8866444fb21b1bf837a0c65e953af9d162f48f5",
    "guided_no_sys":
        "536c3b649c794e3fea37251ce6a286c0f48b21525eafb4a36a7c1d431bfc8829",
    "speed_only":
        "cb57f599b2437f7cf51e7607564a8efa42bfe76ad26864664c685cc57410af31",
    "stat_only":
        "42c8e08403271fa008739006ee230bafebf59a3bdac56cf1fe2daec5ad9bfdcc",
}


@pytest.mark.parametrize("policy", sorted(GOLDEN_ROUND_DIGESTS))
def test_golden_round_engine_digest(policy):
    assert round_engine_digest(policy) == GOLDEN_ROUND_DIGESTS[policy]


# The guided session under the utility built from every batch step's squared
# update norm, the one path that reads the norms.
GOLDEN_NORMS_DIGEST = (
    "0aaa7001f7fb1ea12ee68db5381f37322397df6610e81c385dbef58491278a32")


def test_golden_round_engine_digest_on_batch_norms():
    assert (round_engine_digest("guided", utility_mode="gradient_norm_batches")
            == GOLDEN_NORMS_DIGEST)


def test_pacer_steps_the_guided_session():
    guided = golden_session("guided").run_rounds(12)
    fixed = golden_session("guided_no_pacer").run_rounds(12)
    assert [r.preferred_duration for r in guided] == [1.0] * 10 + [2.0] * 2
    assert {r.preferred_duration for r in fixed} == {1.0}
    assert ([r.completers for r in guided[:10]]
            == [r.completers for r in fixed[:10]])
    assert ([r.completers for r in guided[10:]]
            != [r.completers for r in fixed[10:]])


def test_session_rejects_a_world_whose_rows_are_not_in_id_order():
    world = generate_population(small_spec())
    world.ids = world.ids[::-1].copy()  # bypasses SimWorld's own check
    with pytest.raises(FedselError, match="row for row"):
        TrainingSession(world, "guided", SelectorConfig(pacer_step=5.0), 5, 0)


def test_restore_rejects_a_checkpoint_of_other_clients():
    session = make_session(seed=1)
    other = make_session(seed=1, spec=small_spec(client_count=30))
    other.run_round()
    before = session.snapshot()
    with pytest.raises(CheckpointError, match="row for row"):
        session.restore(other.snapshot())
    assert session.snapshot().store == before.store
