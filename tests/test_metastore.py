"""Metadata registry: feedback folding, blacklisting, clipping, checkpoints."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsel import metastore
from fedsel.errors import CheckpointError, StaleFeedbackError, UnknownClientError
from fedsel.metastore import Checkpoint, MetaStore, RoundFeedback, StoreView
from fedsel.training import SelectorConfig, TrainingSelector
from checkpoint_oracle import render_v1


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


def cells(view: StoreView, cid: str) -> dict:
    """Client ``cid``'s row of every column, found through ``view.slots``."""
    row = view.slots[cid]
    return {name: getattr(view.table, name)[row].item()
            for name, _ in metastore._COLUMNS}


def test_register_then_feedback_updates_record():
    s = store()
    s.register_client("a", speed_hint=2.0)
    assert feed(s, ("a", 5.0, 3.0)) == 1
    rec = cells(s.view(), "a")
    assert rec["explored"] and rec["stat_utility"] == 5.0
    assert (rec["last_round"], rec["duration"], rec["times_selected"]) == (1, 3.0, 1)


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
    assert not cells(s.view(), "a")["explored"]


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
    rec = cells(s.view(), "a")
    assert rec["times_selected"] == 9 and not rec["blacklisted"]
    feed(s, ("a", 1.0, 1.0))
    rec = cells(s.view(), "a")
    assert rec["times_selected"] == 10 and rec["blacklisted"]


def test_clip_caps_incoming_utilities():
    # two distinct clients, 50th percentile of {5, 7} (nearest rank) is 5;
    # use explicit caps via a crafted percentile instead: with clip at 50%,
    # the cap is 5.0 so the 7.0 report stores as 5.0
    s = store(clip_percentile=50.0)
    s.register_client("a")
    s.register_client("b")
    feed(s, ("a", 5.0, 1.0), ("b", 7.0, 1.0))
    view = s.view()
    assert cells(view, "a")["stat_utility"] == 5.0
    assert cells(view, "b")["stat_utility"] == 5.0


def test_clip_cap_spec_example_pair():
    # utilities 5 and 7 with a cap of 6 store as 5 and 6; a 75th-percentile
    # cap over {5, 7, 6, 6} is exactly 6
    s = store(clip_percentile=75.0)
    for cid in ("a", "b", "c", "d"):
        s.register_client(cid)
    feed(s, ("c", 6.0, 1.0), ("d", 6.0, 1.0))
    feed(s, ("a", 5.0, 1.0), ("b", 7.0, 1.0))
    view = s.view()
    assert cells(view, "a")["stat_utility"] == 5.0
    assert cells(view, "b")["stat_utility"] == 6.0


def test_counters_never_decrease_and_blacklist_sticks():
    s = store(blacklist_threshold=2)
    s.register_client("a")
    seen = []
    for _ in range(4):
        feed(s, ("a", 1.0, 1.0))
        rec = cells(s.view(), "a")
        seen.append((rec["times_selected"], rec["blacklisted"]))
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
    assert len(s.snapshot().table) == 5


def test_duplicate_registration_rejected():
    s = store()
    s.register_client("a")
    with pytest.raises(ValueError):
        s.register_client("a")


@pytest.mark.parametrize("client_id", [5, b"a", None, 1.5], ids=repr)
def test_non_str_client_id_rejected_and_store_untouched(tmp_path, client_id):
    path = tmp_path / "auto.json"
    s = MetaStore(preferred_duration=10.0, checkpoint_every=1,
                  checkpoint_path=str(path))
    s.register_client("a")
    before = s.snapshot()
    with pytest.raises(TypeError):
        s.register_client(client_id)
    assert s.client_count == 1 and s.client_ids() == ["a"]
    assert s.snapshot() == before
    assert s.advance_round() == 1
    assert Checkpoint.read(str(path)).round_index == 1


def test_feedback_before_the_first_round_rejected_and_store_untouched():
    s = store()
    s.register_client("a")
    before = s.snapshot()
    with pytest.raises(StaleFeedbackError):
        s.update_with_feedback([RoundFeedback("a", 1.0, 1.0, 0)])
    assert s.snapshot() == before


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
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(CheckpointError):
        s.load(str(path))
    assert s.snapshot() == before


@pytest.mark.parametrize("column, value, message", [
    ("duration", math.nan, "duration must be finite"),
    ("stat_utility", -1.0, "stat_utility must be finite and >= 0"),
    ("last_round", 2, "last_round exceeds"),
    ("speed_hint", 0.0, "speed_hint must be finite and > 0"),
])
def test_save_checks_the_live_columns(tmp_path, column, value, message):
    s = store()
    for cid in "abc":
        s.register_client(cid)
    feed(s, ("a", 2.0, 1.0), ("b", 3.0, 4.0))
    path = tmp_path / "cp"
    s.save(str(path))
    saved = path.read_bytes()
    s._cols[column][s.view().slots["b"]] = value
    with pytest.raises(CheckpointError, match=message):
        s.save(str(path))
    assert path.read_bytes() == saved
    assert not (tmp_path / "cp.tmp").exists()


def test_save_checks_ids_once_per_id_set(tmp_path, monkeypatch):
    calls = []
    check_ids = metastore._check_ids
    monkeypatch.setattr(metastore, "_check_ids",
                        lambda ids: calls.append(ids) or check_ids(ids))
    s = store()
    s.register_client("b")
    path = str(tmp_path / "cp")
    for _ in range(3):
        s.save(path)
    assert calls == [("b",)]
    s.register_client("a")
    s.save(path)
    s.save(path)
    assert calls == [("b",), ("a", "b")]
    s.load(path)  # the checkpoint checks its ids; so does the next save
    s.save(path)
    assert calls == [("b",), ("a", "b"), ("a", "b"), ("a", "b")]


def archive_members(path) -> dict:
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def write_members(path, members: dict) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def header_of(members: dict) -> dict:
    return json.loads(str(members["header"]))


def test_restore_version_mismatch_errors(tmp_path):
    s = store()
    s.register_client("a")
    path = tmp_path / "cp.npz"
    s.save(str(path))
    members = archive_members(path)
    members["header"] = np.array(json.dumps(
        {**header_of(members), "format": "fedsel-metastore-v999"}))
    write_members(path, members)
    before = s.snapshot()
    with pytest.raises(CheckpointError, match="v999"):
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
            cp = Checkpoint.read(str(path))
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


def test_round_trip_preserves_nan_free_floats(tmp_path):
    s = store()
    s.register_client("a")
    feed(s, ("a", 1e-17, 1e9))
    path = tmp_path / "cp.npz"
    s.save(str(path))
    cp = Checkpoint.read(str(path))
    assert cp.table.stat_utility[0] == 1e-17
    assert cp.table.duration[0] == 1e9


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
    assert first.read_bytes()[:4] == b"PK\x03\x04"
    members = archive_members(first)
    assert header_of(members) == {
        "format": "fedsel-metastore-v2", "round_index": 1,
        "preferred_duration": 10.0, "utility_history": [1.0 / 3.0 + 7.0]}
    assert bytes(members["client_ids"]) == b"abc"
    assert members["client_id_ends"].tolist() == [1, 2, 3]
    assert np.isnan(members["speed_hint"][0])
    assert members["speed_hint"][1:].tolist() == [0.1 + 0.2, 3.0]
    assert members["stat_utility"].tolist() == [1.0 / 3.0, 0.0, 7.0]
    assert members["duration"].tolist() == [2.5, 0.0, 1e-3]
    assert members["last_round"].tolist() == [1, 0, 1]
    assert members["times_selected"].tolist() == [1, 0, 1]
    assert members["explored"].tolist() == [True, False, True]
    assert members["blacklisted"].tolist() == [False] * 3


def test_client_ids_round_trip_exactly(tmp_path):
    # A numpy string array would read "a\x00" back as "a"; JSON text reads
    # the surrogate pair "\ud83d\ude00" back as "\U0001f600".
    ids = ["a", "a\x00", "", "\ud800", "\x7f", 'q"uote', "x" * 40,
           "\ud83d\ude00", "\U0001f600", "caf\u00e9"]
    s = store()
    for i, cid in enumerate(ids):
        s.register_client(cid, speed_hint=None if i % 3 else 1.0 + i)
    feed(s, ("a\x00", 2.0, 3.0), ("\ud800", 1.0, 1.0))
    path = tmp_path / "cp.json"
    s.save(str(path))
    t = store()
    t.load(str(path))
    assert t.client_ids() == sorted(ids)
    assert t.snapshot() == s.snapshot()
    assert cells(t.view(), "a\x00")["stat_utility"] == 2.0


def saved_checkpoints_digest(tmp_path) -> tuple[str, str, int]:
    """Fold every file a seeded autosaving run writes, two ways: the sha256
    of each file's v1 rendering, and the sha256 of its bytes.

    About 2000 clients, one in seven without a speed hint and a few whose
    ids need JSON escaping, a low blacklist threshold, 30 feedback rounds
    with an autosave every fifth round, clients registered after a save,
    and at round 15 a load of the autosaved file into a fresh store that
    carries on in place of the first.
    """
    rng = np.random.default_rng([2024, 8])
    path = tmp_path / "auto.json"

    def autosaving() -> MetaStore:
        return MetaStore(preferred_duration=10.0, clip_percentile=90.0,
                         blacklist_threshold=3, checkpoint_every=5,
                         checkpoint_path=str(path))

    def register(s: MetaStore, new_ids: list[str]) -> None:
        for cid in new_ids:
            hint = (None if rng.random() < 1 / 7
                    else float(rng.lognormal(0.0, 0.8)))
            s.register_client(cid, speed_hint=hint)
        ids.extend(new_ids)

    s = autosaving()
    ids: list[str] = []
    register(s, [f"c{i:04d}" for i in range(1990)]
             + ['q"uote', "back\\slash", "caf\u00e9", "\u2603", "tab\there",
                "", " lead", "z" * 40, "c0000 ", "\x7f"])
    v1_digest, raw_digest, saves = hashlib.sha256(), hashlib.sha256(), 0

    def fold() -> None:
        text = render_v1(Checkpoint.read(str(path)))
        v1_digest.update(hashlib.sha256(text.encode()).digest())
        raw_digest.update(hashlib.sha256(path.read_bytes()).digest())

    for _ in range(30):
        r = s.advance_round()
        if r % 5 == 0:
            fold()
            saves += 1
        if r == 15:
            s = autosaving()
            s.load(str(path))
        if r in (6, 21):
            register(s, [f"late{r}-{j}" for j in range(25)])
        if r % 8 == 0:
            s.set_preferred_duration(s.preferred_duration * 1.1)
        picks = rng.choice(len(ids), size=200, replace=False)
        scale = 10.0 ** rng.integers(-18, 18, picks.size)
        values = np.where(rng.random(picks.size) < 0.05, 0.0,
                          rng.uniform(0.0, 50.0, picks.size) * scale)
        durations = rng.lognormal(2.0, 1.0, picks.size)
        s.update_with_feedback(
            RoundFeedback(ids[i], float(v), float(d), r)
            for i, v, d in zip(picks.tolist(), values, durations))
    s.save(str(path))
    fold()
    return v1_digest.hexdigest(), raw_digest.hexdigest(), saves + 1


def test_golden_saved_checkpoint_digest(tmp_path):
    # The v1 digest was recorded when save wrote v1 text: it pins the state
    # each save holds, read back from the file. The raw digest pins the v2
    # bytes of every save.
    v1_digest, raw_digest, saves = saved_checkpoints_digest(tmp_path)
    assert saves == 7
    assert v1_digest == (
        "0fc93a5e14ff8374c522b814f30b8383bdae718d7d0c9577968c36cac8f182c2")
    assert raw_digest == (
        "a9faee59d1fd15b3cc4c297bd462cf3fc758dfd9bd7dea193fb84f7d110ed001")


# Random interleavings of every store operation; after each save the file
# must decode to the snapshot, and load then save must give the same bytes.
_STORE_OPS = st.lists(st.one_of(
    st.tuples(st.just("register"), st.text("ab\"\\\u00e9\u2603", max_size=3),
              st.none() | st.floats(1e-3, 1e3)),
    st.tuples(st.just("feedback"), st.lists(st.tuples(
        st.integers(0, 40), st.floats(0.0, 1e12), st.floats(1e-3, 1e3)),
        max_size=6)),
    st.tuples(st.just("advance")),
    st.tuples(st.just("prefer"), st.floats(1.0, 2.0)),
    st.tuples(st.just("restore"), st.integers(0, 20)),
    st.tuples(st.just("load")),
    st.tuples(st.just("save")),
), max_size=40)


def assert_saved_file_matches(s: MetaStore, path: str) -> None:
    assert Checkpoint.read(path) == s.snapshot()
    fresh = store()
    fresh.load(path)
    assert fresh.snapshot() == s.snapshot()
    fresh.save(f"{path}.again")
    with open(path, "rb") as one, open(f"{path}.again", "rb") as two:
        assert one.read() == two.read()


@settings(max_examples=150, deadline=None)
@given(ops=_STORE_OPS)
def test_saved_checkpoint_decodes_to_the_snapshot(ops):
    with tempfile.TemporaryDirectory() as tmp:
        auto, path = os.path.join(tmp, "auto.json"), os.path.join(tmp, "cp.json")
        s = store(blacklist_threshold=2, checkpoint_every=2, checkpoint_path=auto)
        snapshots = [s.snapshot()]
        for op, *args in ops:
            if op == "register":
                cid, hint = args
                if cid not in s.view().slots:
                    s.register_client(cid, speed_hint=hint)
            elif op == "feedback" and s.round_index > 0:
                view = s.view()
                open_ids = [cid for cid in sorted(view.slots)
                            if view.table.last_round[view.slots[cid]] < s.round_index
                            or not view.table.explored[view.slots[cid]]]
                batch = {open_ids[i % len(open_ids)]: (u, d)
                         for i, u, d in args[0]} if open_ids else {}
                s.update_with_feedback(RoundFeedback(cid, u, d, s.round_index)
                                       for cid, (u, d) in batch.items())
            elif op == "advance":
                if s.advance_round() % 2 == 0:
                    assert_saved_file_matches(s, auto)
            elif op == "prefer":
                s.set_preferred_duration(s.preferred_duration * args[0])
            elif op == "restore":
                s.restore(snapshots[args[0] % len(snapshots)])
            elif op == "load" and os.path.exists(path):
                s.load(path)
            elif op == "save":
                s.save(path)
                assert_saved_file_matches(s, path)
            view = s.view()
            ids = view.table.ids
            assert all(a < b for a, b in zip(ids, ids[1:]))
            assert all(view.slots[cid] == row for row, cid in enumerate(ids))
            assert len(view.slots) == len(ids)
            snapshots.append(s.snapshot())
        s.save(path)
        assert_saved_file_matches(s, path)


# -- views ------------------------------------------------------------------------


def test_view_does_not_see_later_writes_or_registrations():
    s = store()
    s.register_client("a")
    view = s.view()
    feed(s, ("a", 5.0, 2.0))
    s.register_client("b")
    assert not cells(view, "a")["explored"]
    assert view.table.ids == ("a",) and list(view.slots) == ["a"]
    assert "b" not in view.slots and len(view.table) == 1
    assert cells(s.view(), "a")["explored"]


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


def saved_members(tmp_path) -> dict:
    """The archive members of a saved store at round 1: client "a" (row 0)
    with a hint and explored, client "b" with neither."""
    s = store()
    s.register_client("a", speed_hint=2.0)
    s.register_client("b")
    feed(s, ("a", 4.0, 3.0))
    path = tmp_path / "saved.npz"
    s.save(str(path))
    return archive_members(path)


def put(members: dict, where: str, value) -> dict:
    """``members`` with ``value`` where a v1 file held it: a header field as
    JSON, a record field in row 0 of its column. A value of another type
    gives the column that dtype; an integer past float64's range is the
    infinity it rounds to. A string client id goes through the id encoding
    (the id of row 1 makes a duplicate); any other id is bytes that are not
    UTF-8."""
    field = where.removeprefix("records.")
    if field == where:
        return mutate_members(members, ("header_field", field, value))
    if field == "client_id":
        members = dict(members)
        if isinstance(value, str):
            members["client_ids"], members["client_id_ends"] = (
                metastore._encode_ids((value, "b")))
        else:
            members["client_ids"] = members["client_ids"].copy()
            members["client_ids"][0] = 0xFF
        return members
    if type(value) is int and abs(value) > sys.float_info.max:
        value = math.inf
    dtype = np.asarray(value).dtype
    if dtype != members[field].dtype:
        return mutate_members(members, ("dtype", field, dtype.str))
    return mutate_members(members, ("int" if dtype.kind == "i" else "float",
                                    field, 0, value))


@pytest.mark.parametrize("where, value", [
    ("records.stat_utility", "oops"),
    ("records.stat_utility", math.nan),
    ("records.duration", math.inf),
    ("records.duration", 0.0),
    ("records.speed_hint", -math.inf),  # NaN is how the column says "no hint"
    ("records.speed_hint", -1.0),
    ("records.last_round", 1.0),
    ("records.last_round", 99),
    ("records.times_selected", True),
    ("records.explored", 1),
    ("records.client_id", 7),
    ("records.client_id", "b"),  # the id of the second record
    ("utility_history", []),
    ("utility_history", [math.nan]),
    ("preferred_duration", 0.0),
    ("preferred_duration", -5.0),
    ("preferred_duration", "10"),
    ("round_index", 1.5),
    ("records.speed_hint", 10 ** 400),
    ("preferred_duration", 10 ** 400),
    ("utility_history", [10 ** 400]),
], ids=lambda v: repr(v)[:40])
def test_bad_checkpoint_rejected_and_store_untouched(tmp_path, where, value):
    path = tmp_path / "bad.npz"
    write_members(path, put(saved_members(tmp_path), where, value))
    with pytest.raises(CheckpointError):
        Checkpoint.read(str(path))
    s = store()
    s.register_client("z")
    before = s.snapshot()
    with pytest.raises(CheckpointError):
        s.load(str(path))
    assert s.snapshot() == before


def test_checkpoint_in_reverse_id_order_loads_sorted(tmp_path):
    s = store()
    for i in range(40):
        s.register_client(f"c{i:02d}", speed_hint=None if i % 5 else 1.0 + i)
    for r in range(3):
        feed(s, *((f"c{i:02d}", 1.0 + i * r, 1.0 + i) for i in range(r, 40, 4)))
    in_order, reversed_ = tmp_path / "in_order.npz", tmp_path / "reversed.npz"
    s.save(str(in_order))
    members = archive_members(in_order)
    for name, _ in metastore._COLUMNS:
        members[name] = members[name][::-1]
    members["client_ids"], members["client_id_ends"] = metastore._encode_ids(
        tuple(reversed(s.client_ids())))
    write_members(reversed_, members)
    assert Checkpoint.read(str(reversed_)).table.ids == tuple(
        reversed(s.client_ids()))

    t = store()
    t.load(str(reversed_))
    assert t.client_ids() == s.client_ids()
    resaved = tmp_path / "resaved.npz"
    t.save(str(resaved))
    assert resaved.read_bytes() == in_order.read_bytes()
    from_reversed, from_sorted = store(), store()
    from_reversed.load(str(reversed_))
    from_sorted.load(str(in_order))
    sel = TrainingSelector(SelectorConfig(pacer_step=10.0), seed=5)
    r = s.round_index + 1
    assert (sel.select_participants(from_reversed.view(), 12, r)[0]
            == sel.select_participants(from_sorted.view(), 12, r)[0])


def test_load_keeps_the_id_order_of_a_saved_file(tmp_path, monkeypatch):
    s = store()
    for i in reversed(range(40)):
        s.register_client(f"c{i:02d}", speed_hint=1.0 + i)
    feed(s, *((f"c{i:02d}", 1.0 + i, 2.0) for i in range(0, 40, 3)))
    path = tmp_path / "store.ckpt"
    s.save(str(path))
    want = s.view()

    sorts = []
    monkeypatch.setattr(MetaStore, "_sort", lambda self: sorts.append(self))
    loaded, restored = store(), store()
    loaded.load(str(path))
    restored.restore(s.snapshot())
    for t in (loaded, restored):
        got = t.view()
        assert got.table == want.table
        assert got.slots == want.slots
    assert sorts == []
    monkeypatch.undo()

    loaded.register_client("a")
    assert loaded.client_ids() == ["a", *want.table.ids]


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


def npy_file() -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


@pytest.mark.parametrize("data", [
    b'{"version":"fedsel-metastore-v1","round_index":\xff}',
    b"[" * 100_000,
    b"",
    b"PK\x03",
    npy_file(),
    None,  # the store's own well-formed v1 text
], ids=["invalid_utf8", "deep_nesting", "empty", "short_magic", "npy", "v1"])
def test_undecodable_v1_file_fails_typed_and_store_untouched(tmp_path, data):
    # Only a v2 archive loads: every other file fails typed, naming v2.
    s = store()
    s.register_client("a")
    feed(s, ("a", 1.0, 1.0))
    before = s.snapshot()
    path = tmp_path / "cp.json"
    path.write_bytes(render_v1(before).encode() if data is None else data)
    with pytest.raises(CheckpointError, match="not a fedsel-metastore-v2 archive"):
        s.load(str(path))
    assert s.snapshot() == before


def test_missing_checkpoint_file_fails_typed(tmp_path):
    with pytest.raises(CheckpointError):
        store().load(str(tmp_path / "absent.json"))


# -- fuzzing the checkpoint boundary ----------------------------------------------

_FUZZ_IDS = ["a", "a\x00", "", "\ud800", "b", "c"]
_MEMBERS = ["header", "client_ids", "client_id_ends",
            *(name for name, _ in metastore._COLUMNS)]
_FLOAT_COLUMNS = ["speed_hint", "stat_utility", "duration"]


def fuzz_store() -> MetaStore:
    s = store(blacklist_threshold=2)
    for i, cid in enumerate(_FUZZ_IDS):
        s.register_client(cid, speed_hint=None if i % 2 else 1.0 + i)
    feed(s, ("a", 2.0, 3.0), ("b", 1.0, 1.0))
    feed(s, ("a", 1.0, 2.0), ("c", 5.0, 4.0))
    return s


def assert_loads_or_fails_typed(data: bytes) -> None:
    """Loading ``data`` succeeds or raises CheckpointError, leaving the store
    untouched; any other exception fails the test."""
    s = store()
    s.register_client("z", speed_hint=3.0)
    feed(s, ("z", 1.0, 1.0))
    before = s.snapshot()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cp")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            s.load(path)
        except CheckpointError:
            assert s.snapshot() == before
        else:
            fresh = store()
            fresh.restore(Checkpoint.read(path))
            assert s.snapshot() == fresh.snapshot()


def byte_mutation():
    return st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
        st.tuples(st.just("flip"), st.lists(st.tuples(
            st.integers(0, 1 << 16), st.integers(1, 255)), min_size=1,
            max_size=4)))


def apply_bytes(data: bytes, mutation) -> bytes:
    kind, arg = mutation
    if kind == "truncate":
        return data[:arg % (len(data) + 1)]
    out = bytearray(data)
    for at, mask in arg:
        out[at % len(out)] ^= mask
    return bytes(out)


_HUGE = 10 ** 400
_HEADER_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(_HUGE), st.just(-_HUGE),
    st.floats(), st.text(max_size=4),
    st.lists(st.floats() | st.integers() | st.just(_HUGE), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))

_V2_MUTATIONS = st.one_of(
    st.tuples(st.just("bytes"), byte_mutation()),
    st.tuples(st.just("drop"), st.sampled_from(_MEMBERS)),
    st.tuples(st.just("extra"), st.sampled_from(["extra", "header.npy"])),
    st.tuples(st.just("object"), st.sampled_from(_MEMBERS)),
    st.tuples(st.just("dtype"), st.sampled_from(_MEMBERS[1:]),
              st.sampled_from(["float32", "int32", "float64", "int64",
                               ">f8", ">i8", "bool", "uint8", "U1"])),
    st.tuples(st.just("shape"), st.sampled_from(_MEMBERS),
              st.sampled_from(["2d", "short", "long", "0d", "1d"])),
    st.tuples(st.just("float"), st.sampled_from(_FLOAT_COLUMNS),
              st.integers(0, 5), st.sampled_from(
                  [math.nan, math.inf, -math.inf, -1.0, 0.0, 1e308])),
    st.tuples(st.just("int"), st.sampled_from(["last_round", "times_selected"]),
              st.integers(0, 5), st.sampled_from([-1, 0, 3, 2**62, -2**63])),
    st.tuples(st.just("bool"), st.sampled_from(["blacklisted", "explored"]),
              st.integers(0, 5), st.integers(0, 255)),
    st.tuples(st.just("ends"), st.integers(0, 5), st.integers(-3, 12)),
    st.tuples(st.just("duplicate"), st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.just("header_field"), st.sampled_from(
        ["format", "round_index", "preferred_duration", "utility_history",
         "extra"]), _HEADER_VALUES),
    st.tuples(st.just("header_drop"), st.sampled_from(
        ["format", "round_index", "preferred_duration", "utility_history"])),
    st.tuples(st.just("header_text"), st.sampled_from(
        ["", "{", "[]", "null", "[" * 100_000, "1" * 5000,
         '{"format":"fedsel-metastore-v2","round_index":' + "9" * 5000 + "}"])),
)


def mutate_members(members: dict, mutation) -> dict:
    kind, *args = mutation
    members = dict(members)
    if kind == "drop":
        del members[args[0]]
    elif kind == "extra":
        members[args[0]] = np.zeros(3)
    elif kind == "object":
        value = members[args[0]]
        members[args[0]] = np.array(
            value.tolist() if value.ndim else [value.item()], dtype=object)
    elif kind == "dtype":
        name, dtype = args
        with np.errstate(invalid="ignore"):  # NaN to an integer dtype
            members[name] = members[name].astype(dtype)
    elif kind == "shape":
        name, how = args
        value = members[name]
        flat = value.reshape(-1)
        members[name] = {"2d": value.reshape(-1, 1), "short": flat[:-1],
                         "long": np.concatenate([flat, flat[:1]]),
                         "0d": flat[0], "1d": flat}[how]
    elif kind in ("float", "int", "bool"):
        name, row, value = args
        col = members[name].copy()
        if kind == "bool":
            col.view(np.uint8)[row] = value
        else:
            col[row] = value
        members[name] = col
    elif kind == "ends":
        row, value = args
        ends = members["client_id_ends"].copy()
        ends[row] = value
        members["client_id_ends"] = ends
    elif kind == "duplicate":
        ids = sorted(_FUZZ_IDS)
        ids[args[0]] = ids[args[1]]
        members["client_ids"], members["client_id_ends"] = (
            metastore._encode_ids(tuple(ids)))
    elif kind == "header_field":
        header = header_of(members)
        header[args[0]] = args[1]
        members["header"] = np.array(json.dumps(header))
    elif kind == "header_drop":
        header = header_of(members)
        del header[args[0]]
        members["header"] = np.array(json.dumps(header))
    elif kind == "header_text":
        members["header"] = np.array(args[0])
    return members


@functools.lru_cache(maxsize=None)
def fuzz_v2_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cp")
        fuzz_store().save(path)
        with open(path, "rb") as fh:
            return fh.read()


@settings(max_examples=400, deadline=None)
@given(mutation=_V2_MUTATIONS)
def test_mutated_v2_checkpoint_loads_or_fails_typed(mutation):
    data = fuzz_v2_bytes()
    if mutation[0] == "bytes":
        data = apply_bytes(data, mutation[1])
    else:
        members = archive_members(io.BytesIO(data))
        buf = io.BytesIO()
        np.savez(buf, **mutate_members(members, mutation))
        data = buf.getvalue()
    assert_loads_or_fails_typed(data)
