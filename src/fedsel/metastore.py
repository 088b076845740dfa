"""Per-client metadata registry.

A single-writer store of per-client aggregates fed by round feedback. The
store keeps one numpy column per field, rows in client-id order, so a client
costs a constant handful of values no matter how many rounds it has
participated in. Selectors read immutable snapshot views made of read-only
column copies; the whole store can be checkpointed to one file and restored
bit-identically. A checkpoint is a ``fedsel-metastore-v2`` archive: an
uncompressed ``.npz`` of the typed columns and the client ids, with a small
JSON header. It is the only format read.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
import zipfile
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Mapping

import numpy as np

from .errors import CheckpointError, StaleFeedbackError, UnknownClientError
from .training import clip_cap

CHECKPOINT_FORMAT = "fedsel-metastore-v2"
# A v2 file is a zip archive. Without this check, a ``.npy`` file would make
# ``np.load`` return an array rather than an archive.
_ZIP_MAGIC = b"PK\x03\x04"

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

_HEADER_KEYS = frozenset(["format", "round_index", "preferred_duration",
                          "utility_history"])
# The v2 archive's 1-d members: every client id's UTF-8 bytes back to back,
# where each id ends in the decoded text, then the columns. A 0-d ``header``
# string holds the rest as JSON.
_MEMBER_DTYPES = {"client_ids": np.dtype(np.uint8),
                  "client_id_ends": np.dtype(np.int64),
                  **{name: np.dtype(dtype) for name, dtype in _COLUMNS}}
_MEMBER_FILES = sorted(f"{name}.npy" for name in ["header", *_MEMBER_DTYPES])
# What zipfile and numpy's .npy reader raise on a damaged archive whose
# members are stored uncompressed.
_ARCHIVE_ERRORS = (OSError, EOFError, ValueError, KeyError, RuntimeError,
                   NotImplementedError, MemoryError, struct.error,
                   zipfile.BadZipFile, zipfile.LargeZipFile)


def _as_float(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CheckpointError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise CheckpointError(f"{name} is out of range") from None
    if not math.isfinite(value):
        raise CheckpointError(f"{name} must be finite, got {value!r}")
    return value


def _encode_ids(ids: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The ids' UTF-8 bytes back to back, and where each id ends in code points.

    Bytes rather than a numpy string array, which would drop trailing NULs;
    ``surrogatepass`` keeps lone surrogates, which are valid ``str`` ids.
    """
    blob = "".join(ids).encode("utf-8", "surrogatepass")
    ends = np.cumsum(np.fromiter(map(len, ids), np.int64, len(ids)))
    return np.frombuffer(blob, np.uint8), ends


def _decode_ids(blob: np.ndarray, ends: np.ndarray) -> tuple[str, ...]:
    """The inverse of :func:`_encode_ids`, for ends that split the text."""
    try:
        text = blob.tobytes().decode("utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"client ids are not UTF-8: {exc}") from exc
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1]
    if np.any(ends < starts) or (int(ends[-1]) if len(ends) else 0) != len(text):
        raise CheckpointError("client id ends do not split the id text")
    return tuple(map(text.__getitem__,
                     map(slice, starts.tolist(), ends.tolist())))


def _check_header(round_index: object, preferred_duration: object,
                  utility_history: object) -> tuple[float, tuple[float, ...]]:
    """The header rules; returns the preferred duration and history as floats."""
    r = round_index
    if type(r) is not int or r < 0:
        raise CheckpointError(f"round_index must be an int >= 0, got {r!r}")
    t_pref = _as_float(preferred_duration, "preferred_duration")
    if not t_pref > 0:
        raise CheckpointError("preferred_duration must be > 0")
    if not isinstance(utility_history, (list, tuple)):
        raise CheckpointError("utility_history must be a list")
    history = tuple(_as_float(v, "utility_history value")
                    for v in utility_history)
    if len(history) != r:
        raise CheckpointError(
            f"utility_history has {len(history)} entries for round {r}")
    return t_pref, history


def _check_ids(ids: tuple[str, ...]) -> None:
    if not set(map(type, ids)) <= {str}:
        raise CheckpointError("client ids must be strings")
    if len(set(ids)) != len(ids):
        raise CheckpointError("checkpoint contains duplicate client ids")


def _check_columns(cols: Mapping[str, np.ndarray], round_index: int) -> None:
    """The column rules, over one array per ``_COLUMNS`` name."""
    for name in ("stat_utility", "duration"):
        col = cols[name]
        if not np.all(np.isfinite(col)) or np.any(col < 0):
            raise CheckpointError(f"{name} must be finite and >= 0")
    hint = cols["speed_hint"]
    hint = hint[~np.isnan(hint)]
    if not np.all(np.isfinite(hint)) or np.any(hint <= 0):
        raise CheckpointError("speed_hint must be finite and > 0 when given")
    last_round, explored = cols["last_round"], cols["explored"]
    if np.any(cols["times_selected"] < 0) or np.any(last_round < 0):
        raise CheckpointError("counters must be >= 0")
    if last_round.size and int(last_round.max()) > round_index:
        raise CheckpointError("last_round exceeds the checkpoint's round_index")
    if np.any(last_round[explored] < 1) or np.any(cols["duration"][explored] <= 0):
        raise CheckpointError("explored clients need last_round >= 1 and duration > 0")


def _write_archive(fh: BinaryIO, round_index: int, preferred_duration: float,
                   utility_history: tuple[float, ...], blob: np.ndarray,
                   ends: np.ndarray, cols: Mapping[str, np.ndarray]) -> None:
    """Write a v2 archive; ``blob`` and ``ends`` encode the ids of ``cols``."""
    header = json.dumps({
        "format": CHECKPOINT_FORMAT,
        "round_index": round_index,
        "preferred_duration": preferred_duration,
        "utility_history": list(utility_history),
    }, separators=(",", ":"))
    np.savez(fh, header=np.array(header), client_ids=blob, client_id_ends=ends,
             **{name: cols[name] for name, _ in _COLUMNS})


@dataclass(frozen=True)
class Checkpoint:
    """Serializable snapshot of the full store state, validated on construction.

    :meth:`MetaStore.snapshot` puts the ``table`` rows in client-id order. A
    table decoded from a file keeps the file's record order, which may be any
    order; :meth:`MetaStore.restore` sorts it.
    """

    round_index: int
    preferred_duration: float
    utility_history: tuple[float, ...]
    table: ClientTable

    def __post_init__(self):
        t_pref, history = _check_header(self.round_index,
                                        self.preferred_duration,
                                        self.utility_history)
        if not isinstance(self.table, ClientTable):
            raise CheckpointError("table must be a ClientTable")
        _check_ids(self.table.ids)
        _check_columns({name: getattr(self.table, name) for name, _ in _COLUMNS},
                       self.round_index)
        object.__setattr__(self, "preferred_duration", t_pref)
        object.__setattr__(self, "utility_history", history)

    @classmethod
    def read(cls, path: str) -> "Checkpoint":
        """Decode a ``fedsel-metastore-v2`` checkpoint file. Every decoding
        failure is a CheckpointError."""
        try:
            with open(path, "rb") as fh:
                if fh.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
                    raise CheckpointError(
                        f"checkpoint is not a {CHECKPOINT_FORMAT} archive; "
                        f"v1 JSON checkpoints are no longer read")
                fh.seek(0)
                return cls._from_archive(fh)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint: {exc}") from exc

    @classmethod
    def _from_archive(cls, fh: BinaryIO) -> "Checkpoint":
        """Decode a v2 archive with exactly the members, dtypes and shapes
        that :func:`_write_archive` gives it."""
        try:
            with np.load(fh, allow_pickle=False) as npz:
                infos = npz.zip.infolist()
                if (sorted(info.filename for info in infos) != _MEMBER_FILES
                        or any(info.compress_type != zipfile.ZIP_STORED
                               for info in infos)):
                    raise CheckpointError(
                        f"checkpoint must hold exactly the uncompressed "
                        f"members {', '.join(_MEMBER_FILES)}")
                members = {name: npz[name] for name in npz.files}
        except _ARCHIVE_ERRORS as exc:
            raise CheckpointError(f"checkpoint archive is unreadable: {exc}") from exc
        header = members.pop("header")
        if not (type(header) is np.ndarray and header.shape == ()
                and header.dtype.kind == "U"):
            raise CheckpointError("checkpoint header must be a 0-d string")
        for name, arr in members.items():
            dtype = _MEMBER_DTYPES[name]
            if not (type(arr) is np.ndarray and arr.dtype == dtype
                    and arr.ndim == 1):
                raise CheckpointError(f"{name} must be a 1-d {dtype} array")
        ends = members.pop("client_id_ends")
        blob = members.pop("client_ids")
        if any(col.shape != ends.shape for col in members.values()):
            raise CheckpointError("columns do not match the client ids")
        for name, dtype in _COLUMNS:
            if dtype is np.bool_ and np.any(members[name].view(np.uint8) > 1):
                raise CheckpointError(f"{name} must hold only 0 and 1")
        try:
            head = json.loads(str(header))
        except (ValueError, RecursionError) as exc:
            raise CheckpointError(f"checkpoint header is not JSON: {exc}") from exc
        if not isinstance(head, dict) or head.keys() != _HEADER_KEYS:
            raise CheckpointError(f"malformed checkpoint header: {head!r:.200}")
        if head["format"] != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"unsupported checkpoint format {head['format']!r:.200}")
        return cls(round_index=head["round_index"],
                   preferred_duration=head["preferred_duration"],
                   utility_history=head["utility_history"],
                   table=ClientTable(_decode_ids(blob, ends), **members))


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
        # False while some row is out of client-id order; _index sorts them.
        self._sorted = True
        # (ids, slots) shared by views; rebuilt after a registration.
        self._frozen: tuple[tuple[str, ...], Mapping[str, int]] | None = None
        # (ids, blob, ends) from _encode_ids, made by a save once it has
        # checked ids; current while ids is the _frozen ids tuple.
        self._encoded_ids: tuple[tuple[str, ...], np.ndarray, np.ndarray] | None = None
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
        for col in self._cols.values():
            col[:n] = col[rows]
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
            return Checkpoint(
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
            # Saved files and snapshots hold their rows in client-id order.
            self._sorted = all(map(str.__lt__, table.ids, table.ids[1:]))
            self._frozen = None
            self._round = checkpoint.round_index
            self._preferred_duration = checkpoint.preferred_duration
            self._utility_history = list(checkpoint.utility_history)

    def save(self, path: str) -> None:
        """Write the store as a ``fedsel-metastore-v2`` archive, atomically.

        The archive is one uncompressed ``.npz`` (without the suffix): a 0-d
        JSON header with the format, round index, preferred duration and
        utility history, the encoded client ids and the seven columns, rows
        in client-id order. It is written from the live columns, with no
        snapshot copy, to ``path.tmp`` and renamed over ``path``. Every save
        first checks the header and column rules of :class:`Checkpoint` on
        those columns, so a save that fails them opens no file. The ids are
        checked and encoded by the first save after a registration, sort or
        restore, and reused until the next one.
        """
        with self._lock:
            ids, _ = self._index()
            if self._encoded_ids is None or self._encoded_ids[0] is not ids:
                _check_ids(ids)
                self._encoded_ids = (ids, *_encode_ids(ids))
            n = len(ids)
            cols = {name: col[:n] for name, col in self._cols.items()}
            t_pref, history = _check_header(self._round,
                                            self._preferred_duration,
                                            self._utility_history)
            _check_columns(cols, self._round)
            tmp = f"{path}.tmp"
            with open(tmp, "wb") as fh:
                _write_archive(fh, self._round, t_pref, history,
                               *self._encoded_ids[1:], cols)
            os.replace(tmp, path)

    def load(self, path: str) -> None:
        """Restore from a v2 checkpoint file; see :meth:`Checkpoint.read`."""
        self.restore(Checkpoint.read(path))
