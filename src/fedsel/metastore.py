"""Per-client metadata registry.

A single-writer store of per-client aggregates fed by round feedback. The
store keeps one numpy column per field, indexed by a stable client slot, so a
client costs a constant handful of values no matter how many rounds it has
participated in. Selectors read immutable snapshot views made of read-only
column copies; the whole store can be checkpointed to a versioned JSON file
and restored bit-identically.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CheckpointError, StaleFeedbackError, UnknownClientError
from .training import clip_cap

CHECKPOINT_VERSION = "fedsel-metastore-v1"

# Per-client columns in checkpoint field order (after ``client_id``).
# ``speed_hint`` is NaN for a client registered without a hint.
_COLUMNS = (
    ("speed_hint", np.float64),
    ("stat_utility", np.float64),
    ("last_round", np.int64),
    ("duration", np.float64),
    ("times_selected", np.int64),
    ("blacklisted", np.bool_),
    ("explored", np.bool_),
)

_MIN_CAPACITY = 64


@dataclass
class ClientRecord:
    """Everything the selectors know about one client."""

    client_id: str
    speed_hint: float | None = None
    stat_utility: float = 0.0
    last_round: int = 0
    duration: float = 0.0
    times_selected: int = 0
    blacklisted: bool = False
    explored: bool = False


@dataclass(frozen=True)
class RoundFeedback:
    """One client's report for one round: aggregate utility plus wall time."""

    client_id: str
    agg_stat_value: float
    wall_duration: float
    round_index: int


@dataclass(frozen=True, eq=False)
class ClientTable:
    """Per-client state as one read-only column per field; row i is ``ids[i]``.

    The table takes ownership of the arrays it is given and marks them
    read-only, so callers pass copies.
    """

    ids: tuple[str, ...]
    speed_hint: np.ndarray
    stat_utility: np.ndarray
    last_round: np.ndarray
    duration: np.ndarray
    times_selected: np.ndarray
    blacklisted: np.ndarray
    explored: np.ndarray

    def __post_init__(self):
        for name, dtype in _COLUMNS:
            col = np.asarray(getattr(self, name), dtype=dtype)
            if col.shape != (len(self.ids),):
                raise ValueError(f"column {name} does not match the ids")
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    @classmethod
    def from_records(cls, records: Iterable[ClientRecord]) -> "ClientTable":
        records = list(records)
        cols = {name: [getattr(r, name) for r in records] for name, _ in _COLUMNS}
        cols["speed_hint"] = [math.nan if h is None else h
                              for h in cols["speed_hint"]]
        return cls(tuple(r.client_id for r in records), **cols)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClientTable):
            return NotImplemented
        return self.ids == other.ids and all(
            np.array_equal(getattr(self, name), getattr(other, name),
                           equal_nan=dtype is np.float64)
            for name, dtype in _COLUMNS)

    __hash__ = None  # type: ignore[assignment]

    def record(self, row: int) -> ClientRecord:
        hint = float(self.speed_hint[row])
        return ClientRecord(
            client_id=self.ids[row],
            speed_hint=None if math.isnan(hint) else hint,
            stat_utility=float(self.stat_utility[row]),
            last_round=int(self.last_round[row]),
            duration=float(self.duration[row]),
            times_selected=int(self.times_selected[row]),
            blacklisted=bool(self.blacklisted[row]),
            explored=bool(self.explored[row]),
        )


class _RecordMap(Mapping[str, ClientRecord]):
    """Read-only per-client accessor; builds a :class:`ClientRecord` per lookup."""

    def __init__(self, table: ClientTable, slots: Mapping[str, int]):
        self._table = table
        self._slots = slots

    def __getitem__(self, client_id: str) -> ClientRecord:
        return self._table.record(self._slots[client_id])

    def __iter__(self) -> Iterator[str]:
        return iter(self._table.ids)

    def __len__(self) -> int:
        return len(self._table)


def _slots_and_order(ids: Sequence[str]) -> tuple[Mapping[str, int], np.ndarray]:
    """The id -> row map and the rows in client-id order."""
    slots = {cid: i for i, cid in enumerate(ids)}
    if len(slots) != len(ids):
        raise ValueError("duplicate client ids")
    order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    order.setflags(write=False)
    return slots, order


@dataclass(frozen=True, eq=False)
class StoreView:
    """Immutable snapshot handed to selectors; safe to share across threads.

    ``table`` rows are in slot order; ``order`` lists the rows in client-id
    order and ``slots`` maps a client id to its row. ``slots`` is shared by
    every view taken between two registrations, so readers must not mutate
    it.
    """

    table: ClientTable
    round_index: int
    preferred_duration: float
    utility_history: tuple[float, ...]
    order: np.ndarray
    slots: Mapping[str, int]

    @classmethod
    def from_records(cls, records: Iterable[ClientRecord], round_index: int,
                     preferred_duration: float,
                     utility_history: Sequence[float] = ()) -> "StoreView":
        table = ClientTable.from_records(records)
        slots, order = _slots_and_order(table.ids)
        return cls(table, round_index, float(preferred_duration),
                   tuple(utility_history), order, slots)

    @property
    def records(self) -> Mapping[str, ClientRecord]:
        return _RecordMap(self.table, self.slots)


# -- checkpoints -------------------------------------------------------------

_RECORD_KEYS = frozenset(["client_id", *(name for name, _ in _COLUMNS)])
_RECORD_FORMAT = ('{"client_id":%s,"speed_hint":%s,"stat_utility":%s,'
                  '"last_round":%s,"duration":%s,"times_selected":%s,'
                  '"blacklisted":%s,"explored":%s}')
_JSON_TYPES = {np.float64: {int, float}, np.int64: {int}, np.bool_: {bool}}


def _as_float(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CheckpointError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise CheckpointError(f"{name} must be finite, got {value!r}")
    return float(value)


def _json_tokens(col: np.ndarray) -> list[str]:
    """The JSON text of each element, as ``json.dumps`` writes it."""
    if col.size == 0:
        return []
    return json.dumps(col.tolist(), separators=(",", ":"))[1:-1].split(",")


def _decode_table(rows: object) -> ClientTable:
    """Typed decoding of the checkpoint's record list into columns."""
    if not isinstance(rows, list):
        raise CheckpointError("records must be a list")
    for row in rows:
        if not isinstance(row, dict) or row.keys() != _RECORD_KEYS:
            raise CheckpointError(f"malformed checkpoint record: {row!r:.200}")
    cols: dict[str, np.ndarray] = {}
    for name, dtype in _COLUMNS:
        values = [row[name] for row in rows]
        allowed = _JSON_TYPES[dtype] | ({type(None)} if name == "speed_hint"
                                        else set())
        if not set(map(type, values)) <= allowed:
            bad = next(v for v in values if type(v) not in allowed)
            raise CheckpointError(f"{name} has the wrong type: {bad!r}")
        if name == "speed_hint":
            # NaN is how the column spells "no hint"; only null may say that.
            if any(v is not None and math.isnan(v) for v in values):
                raise CheckpointError("speed_hint must be finite")
            values = [math.nan if v is None else v for v in values]
        try:
            cols[name] = np.array(values, dtype=dtype)
        except OverflowError as exc:
            raise CheckpointError(f"{name} is out of range: {exc}") from exc
    return ClientTable(tuple(row["client_id"] for row in rows), **cols)


def _check_table(table: ClientTable, round_index: int) -> None:
    if not all(type(cid) is str for cid in table.ids):
        raise CheckpointError("client ids must be strings")
    if len(set(table.ids)) != len(table.ids):
        raise CheckpointError("checkpoint contains duplicate client ids")
    for name in ("stat_utility", "duration"):
        col = getattr(table, name)
        if not np.all(np.isfinite(col)) or np.any(col < 0):
            raise CheckpointError(f"{name} must be finite and >= 0")
    hint = table.speed_hint[~np.isnan(table.speed_hint)]
    if not np.all(np.isfinite(hint)) or np.any(hint <= 0):
        raise CheckpointError("speed_hint must be finite and > 0 when given")
    if np.any(table.times_selected < 0) or np.any(table.last_round < 0):
        raise CheckpointError("counters must be >= 0")
    if len(table) and int(table.last_round.max()) > round_index:
        raise CheckpointError("last_round exceeds the checkpoint's round_index")
    explored = table.explored
    if np.any(table.last_round[explored] < 1) or np.any(table.duration[explored] <= 0):
        raise CheckpointError("explored clients need last_round >= 1 and duration > 0")


@dataclass(frozen=True)
class Checkpoint:
    """Serializable snapshot of the full store state, validated on construction.

    :meth:`MetaStore.snapshot` puts the ``table`` rows in client-id order.
    """

    version: str
    round_index: int
    preferred_duration: float
    utility_history: tuple[float, ...]
    table: ClientTable

    def __post_init__(self):
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {self.version!r}")
        r = self.round_index
        if type(r) is not int or r < 0:
            raise CheckpointError(f"round_index must be an int >= 0, got {r!r}")
        t_pref = _as_float(self.preferred_duration, "preferred_duration")
        if not t_pref > 0:
            raise CheckpointError("preferred_duration must be > 0")
        if not isinstance(self.utility_history, (list, tuple)):
            raise CheckpointError("utility_history must be a list")
        history = tuple(_as_float(v, "utility_history value")
                        for v in self.utility_history)
        if len(history) != r:
            raise CheckpointError(
                f"utility_history has {len(history)} entries for round {r}")
        if not isinstance(self.table, ClientTable):
            raise CheckpointError("table must be a ClientTable")
        _check_table(self.table, r)
        object.__setattr__(self, "preferred_duration", t_pref)
        object.__setattr__(self, "utility_history", history)

    @property
    def records(self) -> tuple[ClientRecord, ...]:
        return tuple(self.table.record(i) for i in range(len(self.table)))

    def to_json(self) -> str:
        head = json.dumps({
            "version": self.version,
            "round_index": self.round_index,
            "preferred_duration": self.preferred_duration,
            "utility_history": list(self.utility_history),
        }, separators=(",", ":"))
        t = self.table
        hints = ["null" if h == "NaN" else h for h in _json_tokens(t.speed_hint)]
        rows = ",".join(map(_RECORD_FORMAT.__mod__, zip(
            map(encode_basestring_ascii, t.ids), hints,
            _json_tokens(t.stat_utility), _json_tokens(t.last_round),
            _json_tokens(t.duration), _json_tokens(t.times_selected),
            _json_tokens(t.blacklisted), _json_tokens(t.explored))))
        return f'{head[:-1]},"records":[{rows}]}}'

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "version" not in payload:
            raise CheckpointError("checkpoint is missing its version field")
        if payload["version"] != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {payload['version']!r}")
        try:
            return cls(
                version=payload["version"],
                round_index=payload["round_index"],
                preferred_duration=payload["preferred_duration"],
                utility_history=payload["utility_history"],
                table=_decode_table(payload["records"]),
            )
        except KeyError as exc:
            raise CheckpointError(f"checkpoint is missing field {exc}") from exc


class MetaStore:
    """Columnar registry of per-client state, round counter and pacer state.

    Each registered client owns one slot, a row in every column. Columns grow
    by doubling, so registration is amortised O(1). Feedback ingestion and
    checkpointing are serialized behind one lock; readers work from
    :meth:`view` snapshots.
    """

    def __init__(self, preferred_duration: float, clip_percentile: float = 95.0,
                 blacklist_threshold: int = 10, checkpoint_every: int = 10,
                 checkpoint_path: str | None = None):
        if not (math.isfinite(preferred_duration) and preferred_duration > 0):
            raise ValueError("preferred_duration must be finite and > 0")
        if blacklist_threshold < 1:
            raise ValueError("blacklist_threshold must be >= 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self._lock = threading.Lock()
        self._ids: list[str] = []
        self._slots: dict[str, int] = {}
        # Rows past len(self._ids) stay zero until a client registers there.
        self._cols = {name: np.zeros(_MIN_CAPACITY, dtype)
                      for name, dtype in _COLUMNS}
        # (ids, slots, order) shared by views; rebuilt after a registration.
        self._frozen: tuple[tuple[str, ...], Mapping[str, int],
                            np.ndarray] | None = None
        self._round = 0
        self._preferred_duration = float(preferred_duration)
        self._utility_history: list[float] = []
        self.clip_percentile = clip_percentile
        self.blacklist_threshold = blacklist_threshold
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path

    # -- registration and round bookkeeping --------------------------------

    def register_client(self, client_id: str, speed_hint: float | None = None) -> None:
        """Clients must be registered before any feedback is accepted."""
        if speed_hint is not None and not (math.isfinite(speed_hint)
                                           and speed_hint > 0):
            raise ValueError("speed_hint must be finite and > 0 when given")
        with self._lock:
            if client_id in self._slots:
                raise ValueError(f"client {client_id!r} already registered")
            row = len(self._ids)
            if row == len(self._cols["explored"]):
                self._grow(2 * row)
            self._slots[client_id] = row
            self._ids.append(client_id)
            self._cols["speed_hint"][row] = (math.nan if speed_hint is None
                                             else speed_hint)
            self._frozen = None

    def _grow(self, capacity: int) -> None:
        for name, col in self._cols.items():
            bigger = np.zeros(capacity, col.dtype)
            bigger[:len(col)] = col
            self._cols[name] = bigger

    def advance_round(self) -> int:
        """Open the next round; returns its index (1-based)."""
        with self._lock:
            self._round += 1
            while len(self._utility_history) < self._round:
                self._utility_history.append(0.0)
            r = self._round
        if self.checkpoint_path is not None and r % self.checkpoint_every == 0:
            self.save(self.checkpoint_path)
        return r

    @property
    def round_index(self) -> int:
        return self._round

    @property
    def preferred_duration(self) -> float:
        return self._preferred_duration

    def set_preferred_duration(self, value: float) -> None:
        """The preferred duration only ever relaxes upward."""
        if not math.isfinite(value):
            raise ValueError("preferred_duration must be finite")
        with self._lock:
            if value < self._preferred_duration:
                raise ValueError("preferred_duration is nondecreasing")
            self._preferred_duration = float(value)

    @property
    def client_count(self) -> int:
        return len(self._ids)

    def client_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._ids)

    # -- feedback ingestion -------------------------------------------------

    def update_with_feedback(self, batch: Iterable[RoundFeedback]) -> int:
        """Fold a round's feedback into the columns; returns clients updated.

        The whole batch is validated first and applied atomically: one bad
        item rejects the batch and leaves the store untouched.
        """
        items = list(batch)
        if not items:
            return 0
        with self._lock:
            cols = self._cols
            explored, last_round = cols["explored"], cols["last_round"]
            rows = []
            seen: set[str] = set()
            for fb in items:
                row = self._slots.get(fb.client_id)
                if row is None:
                    raise UnknownClientError(fb.client_id)
                if fb.round_index != self._round or fb.client_id in seen:
                    raise StaleFeedbackError(fb.client_id, fb.round_index, self._round)
                if explored[row] and last_round[row] >= fb.round_index:
                    raise StaleFeedbackError(fb.client_id, fb.round_index, self._round)
                if not math.isfinite(fb.agg_stat_value) or fb.agg_stat_value < 0:
                    raise ValueError("agg_stat_value must be finite and nonnegative")
                if not (math.isfinite(fb.wall_duration) and fb.wall_duration > 0):
                    raise ValueError("wall_duration must be finite and > 0")
                seen.add(fb.client_id)
                rows.append(row)
            rows = np.array(rows, dtype=np.intp)
            values = np.array([fb.agg_stat_value for fb in items], dtype=np.float64)

            # Cap comes from the explored-utility distribution with the
            # incoming values substituted in for their reporters.
            n = len(self._ids)
            others = explored[:n].copy()
            others[rows] = False
            cap = clip_cap(np.concatenate([cols["stat_utility"][:n][others], values]),
                           self.clip_percentile)
            kept = np.where(cap < values, cap, values)  # min(value, cap)

            cols["stat_utility"][rows] = kept
            last_round[rows] = self._round
            cols["duration"][rows] = [fb.wall_duration for fb in items]
            times = cols["times_selected"]
            times[rows] += 1
            explored[rows] = True
            cols["blacklisted"][rows] |= times[rows] >= self.blacklist_threshold
            # Summed in feedback order, so the history is bit-reproducible.
            achieved = 0.0
            for v in kept.tolist():
                achieved += v
            self._utility_history[self._round - 1] += achieved
            return len(items)

    # -- snapshots -----------------------------------------------------------

    def _index(self) -> tuple[tuple[str, ...], Mapping[str, int], np.ndarray]:
        if self._frozen is None:
            ids = tuple(self._ids)
            self._frozen = (ids, *_slots_and_order(ids))
        return self._frozen

    def view(self) -> StoreView:
        with self._lock:
            n = len(self._ids)
            ids, slots, order = self._index()
            table = ClientTable(ids, **{name: col[:n].copy()
                                        for name, col in self._cols.items()})
            return StoreView(
                table=table,
                round_index=self._round,
                preferred_duration=self._preferred_duration,
                utility_history=tuple(self._utility_history),
                order=order,
                slots=slots,
            )

    def snapshot(self) -> Checkpoint:
        with self._lock:
            n = len(self._ids)
            ids, _, order = self._index()
            table = ClientTable(tuple(map(ids.__getitem__, order.tolist())),
                                **{name: col[:n][order]
                                   for name, col in self._cols.items()})
            return Checkpoint(
                version=CHECKPOINT_VERSION,
                round_index=self._round,
                preferred_duration=self._preferred_duration,
                utility_history=tuple(self._utility_history),
                table=table,
            )

    def restore(self, checkpoint: Checkpoint) -> None:
        """Replace all in-memory state from a (validated) checkpoint."""
        if not isinstance(checkpoint, Checkpoint):
            raise CheckpointError("restore needs a Checkpoint")
        table = checkpoint.table
        n = len(table)
        cols = {}
        for name, dtype in _COLUMNS:
            cols[name] = np.zeros(max(n, _MIN_CAPACITY), dtype)
            cols[name][:n] = getattr(table, name)
        with self._lock:
            self._ids = list(table.ids)
            self._slots = {cid: i for i, cid in enumerate(table.ids)}
            self._cols = cols
            self._frozen = None
            self._round = checkpoint.round_index
            self._preferred_duration = checkpoint.preferred_duration
            self._utility_history = list(checkpoint.utility_history)

    def save(self, path: str) -> None:
        """Write the current snapshot atomically."""
        text = self.snapshot().to_json()
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)

    def load(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
        self.restore(Checkpoint.from_json(text))
