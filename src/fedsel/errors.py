"""Exception types and the finite-number check shared across the package."""

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


class TraceParseError(FedselError):
    """A device-trace file row could not be parsed or validated."""

    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason
