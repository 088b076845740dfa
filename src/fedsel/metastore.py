"""Per-client metadata registry.

A single-writer store of per-client aggregates fed by round feedback. The
store keeps one numpy column per field, rows in client-id order, so a client
costs a constant handful of values no matter how many rounds it has
participated in. Selectors read immutable snapshot views made of read-only
column copies; the whole store can be checkpointed to a versioned JSON file
and restored bit-identically. A store that saves keeps each row's JSON text
between saves and renders again only the rows written since the last one.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True, eq=False)
class StoreView:
    """Immutable snapshot handed to selectors; safe to share across threads.

    ``table`` rows are in client-id order and ``slots`` maps a client id to
    its row. ``slots`` is shared by every view taken between two
    registrations, so readers must not mutate it.
    """

    table: ClientTable
    round_index: int
    preferred_duration: float
    utility_history: tuple[float, ...]
    slots: Mapping[str, int]


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


def _render_rows(ids: Sequence[str], cols: Sequence[np.ndarray]) -> list[str]:
    """The v1 JSON text of each record; ``cols`` are in ``_COLUMNS`` order."""
    hints, *rest = map(_json_tokens, cols)
    hints = ["null" if h == "NaN" else h for h in hints]
    return list(map(_RECORD_FORMAT.__mod__, zip(
        map(encode_basestring_ascii, ids), hints, *rest)))


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

    :meth:`MetaStore.snapshot` puts the ``table`` rows in client-id order. A
    table decoded from a file keeps the file's record order, which may be any
    order; :meth:`MetaStore.restore` sorts it.
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

    def _head(self) -> str:
        """The JSON text before the first record."""
        head = json.dumps({
            "version": self.version,
            "round_index": self.round_index,
            "preferred_duration": self.preferred_duration,
            "utility_history": list(self.utility_history),
        }, separators=(",", ":"))
        return f'{head[:-1]},"records":['

    def to_json(self) -> str:
        t = self.table
        rows = _render_rows(t.ids, [getattr(t, name) for name, _ in _COLUMNS])
        return f'{self._head()}{",".join(rows)}]}}'

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

    Each registered client owns a row in every column, and every read sees
    the rows in client-id order. Registration appends a row and columns grow
    by doubling, so registration is amortised O(1); a registration out of id
    order, or a restore, leaves the rows for the next read to sort at once.
    Feedback ingestion and checkpointing are serialized behind one lock;
    readers work from :meth:`view` snapshots.
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
        # Rows whose JSON text in _row_text is current; kept out of _cols so
        # views never see it. The text list is made by the first save.
        self._rendered = np.zeros(_MIN_CAPACITY, np.bool_)
        self._row_text: list[str] | None = None
        # False while some row is out of client-id order; _index sorts them.
        self._sorted = True
        # (ids, slots) shared by views; rebuilt after a registration.
        self._frozen: tuple[tuple[str, ...], Mapping[str, int]] | None = None
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
        if type(client_id) is not str:
            raise TypeError(
                f"client_id must be a str, got {type(client_id).__name__}")
        if speed_hint is not None and not (math.isfinite(speed_hint)
                                           and speed_hint > 0):
            raise ValueError("speed_hint must be finite and > 0 when given")
        with self._lock:
            if client_id in self._slots:
                raise ValueError(f"client {client_id!r} already registered")
            row = len(self._ids)
            if row == len(self._cols["explored"]):
                self._grow(2 * row)
            if row and client_id < self._ids[-1]:
                self._sorted = False
            self._slots[client_id] = row
            self._ids.append(client_id)
            self._cols["speed_hint"][row] = (math.nan if speed_hint is None
                                             else speed_hint)
            self._frozen = None

    def _grow(self, capacity: int) -> None:
        def grown(col: np.ndarray) -> np.ndarray:
            bigger = np.zeros(capacity, col.dtype)
            bigger[:len(col)] = col
            return bigger

        self._cols = {name: grown(col) for name, col in self._cols.items()}
        self._rendered = grown(self._rendered)

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
            return list(self._index()[0])

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
                if (fb.round_index != self._round or self._round == 0
                        or fb.client_id in seen):
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
            self._rendered[rows] = False
            # Summed in feedback order, so the history is bit-reproducible.
            achieved = 0.0
            for v in kept.tolist():
                achieved += v
            self._utility_history[self._round - 1] += achieved
            return len(items)

    # -- snapshots -----------------------------------------------------------

    def _index(self) -> tuple[tuple[str, ...], Mapping[str, int]]:
        """Put the rows in client-id order if they are not; (ids, slots)."""
        if not self._sorted:
            self._sort()
        if self._frozen is None:
            self._frozen = (tuple(self._ids), dict(self._slots))
        return self._frozen

    def _sort(self) -> None:
        n = len(self._ids)
        perm = sorted(range(n), key=self._ids.__getitem__)
        rows = np.array(perm, dtype=np.intp)
        for col in (*self._cols.values(), self._rendered):
            col[:n] = col[rows]
        if self._row_text is not None:
            text = self._row_text + [""] * (n - len(self._row_text))
            self._row_text = [text[i] for i in perm]
        self._ids = [self._ids[i] for i in perm]
        self._slots = {cid: i for i, cid in enumerate(self._ids)}
        self._sorted = True
        self._frozen = None

    def _table(self) -> ClientTable:
        """A copy of the columns, rows in client-id order."""
        ids, _ = self._index()
        n = len(ids)
        return ClientTable(ids, **{name: col[:n].copy()
                                   for name, col in self._cols.items()})

    def view(self) -> StoreView:
        with self._lock:
            table = self._table()
            return StoreView(
                table=table,
                round_index=self._round,
                preferred_duration=self._preferred_duration,
                utility_history=tuple(self._utility_history),
                slots=self._index()[1],
            )

    def snapshot(self) -> Checkpoint:
        with self._lock:
            return self._snapshot()

    def _snapshot(self) -> Checkpoint:
        return Checkpoint(
            version=CHECKPOINT_VERSION,
            round_index=self._round,
            preferred_duration=self._preferred_duration,
            utility_history=tuple(self._utility_history),
            table=self._table(),
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
            self._rendered = np.zeros(len(cols["explored"]), np.bool_)
            self._row_text = None
            self._sorted = False
            self._frozen = None
            self._round = checkpoint.round_index
            self._preferred_duration = checkpoint.preferred_duration
            self._utility_history = list(checkpoint.utility_history)

    def save(self, path: str) -> None:
        """Write ``snapshot().to_json()`` atomically.

        Each row's text is kept between saves, so only the rows registered
        or written since the last save are rendered again.
        """
        with self._lock:
            head = self._snapshot()._head()
            n = len(self._ids)
            if self._row_text is None:
                self._row_text = []
            text = self._row_text
            text.extend([""] * (n - len(text)))
            stale = np.flatnonzero(~self._rendered[:n])
            fresh = _render_rows([self._ids[i] for i in stale.tolist()],
                                 [self._cols[name][stale] for name, _ in _COLUMNS])
            for row, line in zip(stale.tolist(), fresh):
                text[row] = line
            self._rendered[stale] = True
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(head)
                fh.write(",".join(text))
                fh.write("]}")
            os.replace(tmp, path)

    def load(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
        self.restore(Checkpoint.from_json(text))
