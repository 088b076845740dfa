"""Span recording and the benchmark's own arithmetic.

A :class:`Tracer` replaces selected callables of the program with wrappers
that record one span per call (name, start, end, parent) in memory, and puts
the originals back when the traced block ends. Spans are grouped under one
root span per round or query. A span's self time is its duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

# Fields of one aggregated path entry, see RootSummary.paths.
CALLS, TOTAL_NS, SELF_NS, AMOUNT = range(4)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with p% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples rank above the nearest-rank p-th percentile."""
    if count < 1:
        return 0
    return count - _rank(count, p)


def _rank(count: int, p: float) -> int:
    return max(1, math.ceil(p / 100.0 * count))


@dataclass(frozen=True)
class WrapSpec:
    """One callable to trace: ``owner.attr`` recorded as spans called ``name``.

    ``amount`` maps (args, kwargs, result) of a call to a count stored on its
    span, such as the samples a local epoch trained on.
    """

    owner: object
    attr: str
    name: str
    amount: Callable[[tuple, dict, object], float] | None = None


@dataclass
class RootSummary:
    """One root span with its descendants aggregated by call path.

    ``paths`` maps the tuple of span names from just below the root down to
    a span to [calls, total ns, self ns, summed amount].
    """

    name: str
    duration_ns: int
    self_ns: int
    paths: dict[tuple[str, ...], list[float]] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder. Single-threaded, like the benchmark."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.amounts: list[float] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._history: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.ends.append(-1)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.amounts.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        if self._stack:
            raise RuntimeError("a root span cannot have a parent")
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- wrapping --------------------------------------------------------------

    def wrap(self, spec: WrapSpec) -> bool:
        """Replace ``spec.owner.spec.attr`` by a recording wrapper.

        Returns False, and notes the name in ``missing``, when the owner has
        no such attribute of its own.
        """
        original = vars(spec.owner).get(spec.attr)
        if original is None:
            self.missing.append(spec.name)
            return False
        tracer, amount = self, spec.amount

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(spec.name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if amount is not None:
                tracer.amounts[index] = float(amount(args, kwargs, result))
            return result

        setattr(spec.owner, spec.attr, traced)
        self._patched.append((spec.owner, spec.attr, original))
        self._history.append((spec.owner, spec.attr, original))
        return True

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, specs: Sequence[WrapSpec]) -> Iterator[None]:
        """Wrap every spec for the duration of the block, then restore all."""
        try:
            for spec in specs:
                self.wrap(spec)
            yield
        finally:
            self.restore()

    def leftovers(self) -> list[str]:
        """Attributes this tracer ever wrapped that are not back to the original."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._history
                if vars(owner).get(attr) is not original]

    # -- analysis --------------------------------------------------------------

    def summaries(self) -> list[RootSummary]:
        """Aggregate every closed root span's subtree by call path."""
        count = len(self.names)
        children: list[list[int]] = [[] for _ in range(count)]
        for i in range(count):
            if self.parents[i] >= 0:
                children[self.parents[i]].append(i)
        self_ns = [self._self_time(i, children[i]) for i in range(count)]

        out: list[RootSummary] = []
        paths: list[tuple[str, ...]] = [()] * count
        owner: list[int] = [-1] * count
        for i in range(count):
            parent = self.parents[i]
            if parent < 0:
                if self.ends[i] < 0:
                    continue
                owner[i] = len(out)
                out.append(RootSummary(self.names[i], self.ends[i] - self.starts[i],
                                       self_ns[i]))
                continue
            owner[i] = owner[parent]
            if owner[i] < 0:
                continue
            paths[i] = paths[parent] + (self.names[i],)
            entry = out[owner[i]].paths.setdefault(paths[i], [0, 0, 0, 0.0])
            entry[CALLS] += 1
            entry[TOTAL_NS] += self.ends[i] - self.starts[i]
            entry[SELF_NS] += self_ns[i]
            entry[AMOUNT] += self.amounts[i]
        return out

    def _self_time(self, index: int, kids: list[int]) -> int:
        start, end = self.starts[index], self.ends[index]
        covered = 0
        reach = start
        for lo, hi in sorted((self.starts[k], self.ends[k]) for k in kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return end - start - covered

    def dump(self) -> dict:
        """Every span, for writing out when the run ends."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        return {
            "names": table,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": [[index[n], s, e, p] for n, s, e, p in
                      zip(self.names, self.starts, self.ends, self.parents)],
        }
