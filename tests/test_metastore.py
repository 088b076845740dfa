"""Metadata registry: feedback folding, blacklisting, clipping, checkpoints."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from fedsel.errors import CheckpointError, StaleFeedbackError, UnknownClientError
from fedsel.metastore import Checkpoint, MetaStore, RoundFeedback
from fedsel.training import SelectorConfig, TrainingSelector


def store(**kwargs) -> MetaStore:
    base = dict(preferred_duration=10.0, clip_percentile=95.0,
                blacklist_threshold=10)
    base.update(kwargs)
    return MetaStore(**base)


def feed(s: MetaStore, *items: tuple[str, float, float]) -> int:
    r = s.advance_round()
    return s.update_with_feedback([
        RoundFeedback(client_id=cid, agg_stat_value=u, wall_duration=d,
                      round_index=r)
        for cid, u, d in items])


def test_register_then_feedback_updates_record():
    s = store()
    s.register_client("a", speed_hint=2.0)
    assert feed(s, ("a", 5.0, 3.0)) == 1
    rec = s.view().records["a"]
    assert rec.explored and rec.stat_utility == 5.0
    assert rec.last_round == 1 and rec.duration == 3.0 and rec.times_selected == 1


def test_empty_batch_is_identity():
    s = store()
    s.register_client("a")
    before = s.snapshot()
    assert s.update_with_feedback([]) == 0
    assert s.snapshot() == before


def test_unknown_client_rejects_whole_batch():
    s = store()
    s.register_client("a")
    r = s.advance_round()
    batch = [RoundFeedback("a", 1.0, 1.0, r), RoundFeedback("ghost", 1.0, 1.0, r)]
    with pytest.raises(UnknownClientError):
        s.update_with_feedback(batch)
    assert not s.view().records["a"].explored


def test_stale_round_rejected():
    s = store()
    s.register_client("a")
    s.advance_round()
    with pytest.raises(StaleFeedbackError):
        s.update_with_feedback([RoundFeedback("a", 1.0, 1.0, 99)])
    feed(s, ("a", 1.0, 1.0))  # round 2 now recorded
    r = s.advance_round()
    with pytest.raises(StaleFeedbackError):
        # duplicate client in one batch
        s.update_with_feedback([RoundFeedback("a", 1.0, 1.0, r),
                                RoundFeedback("a", 2.0, 1.0, r)])


def test_blacklist_at_threshold():
    s = store(blacklist_threshold=10)
    s.register_client("a")
    s.register_client("b")
    for _ in range(9):
        feed(s, ("a", 1.0, 1.0))
    rec = s.view().records["a"]
    assert rec.times_selected == 9 and not rec.blacklisted
    feed(s, ("a", 1.0, 1.0))
    rec = s.view().records["a"]
    assert rec.times_selected == 10 and rec.blacklisted


def test_clip_caps_incoming_utilities():
    # two distinct clients, 50th percentile of {5, 7} (nearest rank) is 5;
    # use explicit caps via a crafted percentile instead: with clip at 50%,
    # the cap is 5.0 so the 7.0 report stores as 5.0
    s = store(clip_percentile=50.0)
    s.register_client("a")
    s.register_client("b")
    feed(s, ("a", 5.0, 1.0), ("b", 7.0, 1.0))
    records = s.view().records
    assert records["a"].stat_utility == 5.0
    assert records["b"].stat_utility == 5.0


def test_clip_cap_spec_example_pair():
    # utilities 5 and 7 with a cap of 6 store as 5 and 6; a 75th-percentile
    # cap over {5, 7, 6, 6} is exactly 6
    s = store(clip_percentile=75.0)
    for cid in ("a", "b", "c", "d"):
        s.register_client(cid)
    feed(s, ("c", 6.0, 1.0), ("d", 6.0, 1.0))
    feed(s, ("a", 5.0, 1.0), ("b", 7.0, 1.0))
    records = s.view().records
    assert records["a"].stat_utility == 5.0
    assert records["b"].stat_utility == 6.0


def test_counters_never_decrease_and_blacklist_sticks():
    s = store(blacklist_threshold=2)
    s.register_client("a")
    seen = []
    for _ in range(4):
        feed(s, ("a", 1.0, 1.0))
        rec = s.view().records["a"]
        seen.append((rec.times_selected, rec.blacklisted))
    counts = [c for c, _ in seen]
    assert counts == sorted(counts)
    first_black = next(i for i, (_, b) in enumerate(seen) if b)
    assert all(b for _, b in seen[first_black:])


def test_store_size_constant_per_client():
    s = store()
    for i in range(5):
        s.register_client(f"c{i}")
    for _ in range(50):
        feed(s, *((f"c{i}", 1.0, 1.0) for i in range(5)))
    assert s.client_count == 5
    assert len(s.snapshot().records) == 5


def test_duplicate_registration_rejected():
    s = store()
    s.register_client("a")
    with pytest.raises(ValueError):
        s.register_client("a")


# -- checkpointing ---------------------------------------------------------------


def test_snapshot_restore_empty_store():
    s = store()
    cp = s.snapshot()
    t = store()
    t.restore(cp)
    assert t.snapshot() == cp


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    s = store()
    for i in range(4):
        s.register_client(f"c{i}", speed_hint=0.125 + i * 0.3333333333333333)
    feed(s, ("c0", 1.23456789012345, 3.3), ("c1", 0.1, 7.7))
    feed(s, ("c2", 9.87654321, 1.1))
    s.set_preferred_duration(12.5)
    path = tmp_path / "store.json"
    s.save(str(path))
    t = store()
    t.load(str(path))
    assert t.snapshot() == s.snapshot()
    assert t.view().utility_history == s.view().utility_history


def test_restore_after_three_rounds_gives_identical_selection(tmp_path):
    # the checkpoint/restore side of selection determinism
    s = store()
    for i in range(30):
        s.register_client(f"c{i:02d}", speed_hint=1.0 + i)
    for r in range(3):
        feed(s, *((f"c{i:02d}", 1.0 + i + r, 1.0 + i) for i in range(0, 30, 3)))
    cp = s.snapshot()
    t = store()
    t.restore(cp)
    sel = TrainingSelector(SelectorConfig(pacer_step=10.0), seed=99)
    round_index = s.round_index + 1
    a, _ = sel.select_participants(s.view(), 8, round_index)
    b, _ = sel.select_participants(t.view(), 8, round_index)
    assert a == b


def test_restore_of_truncated_file_errors_and_preserves_state(tmp_path):
    s = store()
    s.register_client("a")
    feed(s, ("a", 2.0, 1.0))
    before = s.snapshot()
    path = tmp_path / "cp.json"
    s.save(str(path))
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    with pytest.raises(CheckpointError):
        s.load(str(path))
    assert s.snapshot() == before


def test_restore_version_mismatch_errors(tmp_path):
    s = store()
    s.register_client("a")
    path = tmp_path / "cp.json"
    s.save(str(path))
    payload = json.loads(path.read_text())
    payload["version"] = "fedsel-metastore-v999"
    path.write_text(json.dumps(payload))
    before = s.snapshot()
    with pytest.raises(CheckpointError):
        s.load(str(path))
    assert s.snapshot() == before


def test_checkpoint_autosave_cadence(tmp_path):
    path = tmp_path / "auto.json"
    s = MetaStore(preferred_duration=10.0, checkpoint_every=3,
                  checkpoint_path=str(path))
    s.register_client("a")
    for r in range(1, 7):
        s.advance_round()
        if r % 3 == 0:
            assert path.exists()
            cp = Checkpoint.from_json(path.read_text())
            assert cp.round_index == r
            path.unlink()
        else:
            assert not path.exists()


def test_replay_equals_checkpoint_plus_suffix():
    # replaying all feedback equals restoring an intermediate checkpoint and
    # replaying only the suffix
    batches = [
        [("a", 3.0, 2.0), ("b", 1.0, 1.0)],
        [("a", 2.5, 2.1)],
        [("b", 4.0, 0.9), ("c", 2.0, 5.0)],
        [("c", 1.5, 4.0)],
    ]

    def fresh_store() -> MetaStore:
        s = store()
        for cid in ("a", "b", "c"):
            s.register_client(cid)
        return s

    full = fresh_store()
    for batch in batches:
        feed(full, *batch)

    prefix = fresh_store()
    for batch in batches[:2]:
        feed(prefix, *batch)
    cp = prefix.snapshot()
    resumed = fresh_store()
    resumed.restore(cp)
    for batch in batches[2:]:
        feed(resumed, *batch)
    assert resumed.snapshot() == full.snapshot()


def test_round_trip_preserves_nan_free_floats():
    s = store()
    s.register_client("a")
    feed(s, ("a", 1e-17, 1e9))
    cp = Checkpoint.from_json(s.snapshot().to_json())
    assert cp.records[0].stat_utility == 1e-17
    assert cp.records[0].duration == 1e9


def test_preferred_duration_nondecreasing():
    s = store()
    s.set_preferred_duration(11.0)
    with pytest.raises(ValueError):
        s.set_preferred_duration(10.5)
    assert s.preferred_duration == 11.0


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    s = store()
    s.register_client("b", speed_hint=0.1 + 0.2)
    s.register_client("a")
    s.register_client("c", speed_hint=3.0)
    feed(s, ("a", 1.0 / 3.0, 2.5), ("c", 7.0, 1e-3))
    first, second = tmp_path / "one.json", tmp_path / "two.json"
    s.save(str(first))
    t = store()
    t.load(str(first))
    t.save(str(second))
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["version"] == "fedsel-metastore-v1"
    assert [r["client_id"] for r in payload["records"]] == ["a", "b", "c"]
    assert payload["records"][0]["speed_hint"] is None


# -- views ------------------------------------------------------------------------


def test_view_does_not_see_later_writes_or_registrations():
    s = store()
    s.register_client("a")
    view = s.view()
    feed(s, ("a", 5.0, 2.0))
    s.register_client("b")
    assert not view.records["a"].explored
    assert list(view.records) == ["a"]
    assert "b" not in view.records and len(view.table) == 1
    assert s.view().records["a"].explored


def test_view_columns_are_read_only():
    s = store()
    s.register_client("a")
    view = s.view()
    with pytest.raises(ValueError):
        view.table.stat_utility[0] = 1.0


# -- non-finite inputs --------------------------------------------------------------


def test_nan_preferred_duration_rejected():
    with pytest.raises(ValueError):
        store(preferred_duration=math.nan)


def test_set_preferred_duration_nan_rejected():
    s = store()
    with pytest.raises(ValueError):
        s.set_preferred_duration(math.nan)
    assert s.preferred_duration == 10.0


@pytest.mark.parametrize("hint", [math.nan, math.inf])
def test_non_finite_speed_hint_rejected(hint):
    s = store()
    with pytest.raises(ValueError):
        s.register_client("a", speed_hint=hint)
    assert s.client_count == 0


def test_infinite_wall_duration_rejected_whole_batch():
    s = store()
    s.register_client("a")
    s.register_client("b")
    before = s.snapshot()
    r = s.advance_round()
    batch = [RoundFeedback("a", 1.0, 1.0, r), RoundFeedback("b", 1.0, math.inf, r)]
    with pytest.raises(ValueError):
        s.update_with_feedback(batch)
    assert s.snapshot().table == before.table


# -- typed checkpoint decoding --------------------------------------------------------


def saved_payload(tmp_path) -> dict:
    s = store()
    s.register_client("a", speed_hint=2.0)
    s.register_client("b")
    feed(s, ("a", 4.0, 3.0))
    path = tmp_path / "cp.json"
    s.save(str(path))
    return json.loads(path.read_text())


def corrupt(payload: dict, where: str, value) -> dict:
    payload = json.loads(json.dumps(payload))
    if where.startswith("records."):
        payload["records"][0][where.split(".", 1)[1]] = value
    else:
        payload[where] = value
    return payload


@pytest.mark.parametrize("where, value", [
    ("records.stat_utility", "oops"),
    ("records.stat_utility", math.nan),
    ("records.duration", math.inf),
    ("records.duration", 0.0),
    ("records.speed_hint", math.nan),
    ("records.speed_hint", -1.0),
    ("records.last_round", 1.0),
    ("records.last_round", 99),
    ("records.times_selected", True),
    ("records.explored", 1),
    ("records.client_id", 7),
    ("utility_history", []),
    ("utility_history", [math.nan]),
    ("preferred_duration", 0.0),
    ("preferred_duration", -5.0),
    ("preferred_duration", "10"),
    ("round_index", 1.5),
], ids=lambda v: repr(v))
def test_bad_checkpoint_rejected_and_store_untouched(tmp_path, where, value):
    payload = saved_payload(tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(corrupt(payload, where, value)))
    with pytest.raises(CheckpointError):
        Checkpoint.from_json(path.read_text())
    s = store()
    s.register_client("z")
    before = s.snapshot()
    with pytest.raises(CheckpointError):
        s.load(str(path))
    assert s.snapshot() == before


def test_checkpoint_record_with_missing_or_extra_field_rejected(tmp_path):
    payload = saved_payload(tmp_path)
    missing = json.loads(json.dumps(payload))
    del missing["records"][0]["duration"]
    extra = json.loads(json.dumps(payload))
    extra["records"][0]["color"] = "red"
    for bad in (missing, extra):
        with pytest.raises(CheckpointError):
            Checkpoint.from_json(json.dumps(bad))


def test_restore_rejects_inconsistent_checkpoint_untouched():
    s = store()
    s.register_client("a")
    feed(s, ("a", 1.0, 1.0))
    cp = s.snapshot()
    with pytest.raises(CheckpointError):
        dataclasses.replace(cp, round_index=0)
    with pytest.raises(CheckpointError):
        dataclasses.replace(cp, utility_history=())
    assert s.snapshot() == cp
