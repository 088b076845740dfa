"""Exception types and the input checks shared across the package."""

from __future__ import annotations

import math


def require_finite(**values: object) -> None:
    """Raise ValueError naming the first float value that is NaN or infinite."""
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class FedselError(Exception):
    """Base class for all package-specific errors."""


class UnknownClientError(FedselError):
    """Feedback or a query referenced a client that was never registered."""

    def __init__(self, client_id: str):
        super().__init__(f"unknown client: {client_id!r}")
        self.client_id = client_id


class StaleFeedbackError(FedselError):
    """Feedback carried a round index that does not match the current round."""

    def __init__(self, client_id: str, got_round: int, expected_round: int):
        super().__init__(
            f"stale feedback for {client_id!r}: round {got_round}, "
            f"store is at round {expected_round}"
        )
        self.client_id = client_id
        self.got_round = got_round
        self.expected_round = expected_round


class CheckpointError(FedselError):
    """A checkpoint could not be decoded or has an unsupported version."""


class EmptySelectionError(FedselError):
    """No feasible client remained for participant selection."""


class InfeasibleQueryError(FedselError):
    """Total capacity cannot satisfy the preference vector.

    ``shortfalls`` maps category index to the number of missing samples.
    """

    def __init__(self, shortfalls: dict[int, int]):
        detail = ", ".join(f"category {i}: short {s}" for i, s in sorted(shortfalls.items()))
        super().__init__(f"preference cannot be covered ({detail})")
        self.shortfalls = shortfalls


class BudgetExceededError(FedselError):
    """Covering the preference needs more participants than the budget allows."""

    def __init__(self, required: int, budget: int):
        super().__init__(f"cover needs {required} participants, budget is {budget}")
        self.required = required
        self.budget = budget


class SizeGuardError(FedselError):
    """The exact solver refused an instance above its size guard."""


class TableParseError(FedselError, ValueError):
    """A row of an input table could not be parsed or validated."""

    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class TraceParseError(TableParseError):
    """A device-trace file row could not be parsed or validated."""


def read_table(path: str, columns: tuple[str, ...], kind: type = float,
               error: type[TableParseError] = TableParseError,
               ) -> list[tuple[int, str, list]]:
    """Line number, id and finite ``kind`` values of each non-blank row of a
    tab- or comma-separated table with header ``columns``, id column first.
    An empty file has no rows; a bad header, cell count or number raises."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise error(path, data.count(b"\n", 0, exc.start) + 1,
                    f"not UTF-8: {exc.reason}") from exc
    if not lines:
        return []
    sep = "\t" if "\t" in lines[0] else ","
    if tuple(col.strip() for col in lines[0].split(sep)) != columns:
        raise error(path, 1, f"expected header {','.join(columns)}")
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [cell.strip() for cell in line.split(sep)]
        if len(cells) != len(columns):
            raise error(path, line_no,
                        f"expected {len(columns)} columns, got {len(cells)}")
        try:
            values = [kind(cell) for cell in cells[1:]]
            require_finite(**dict(zip(columns[1:], values)))
        except ValueError as exc:
            raise error(path, line_no, f"bad number: {exc}") from exc
        rows.append((line_no, cells[0], values))
    return rows
