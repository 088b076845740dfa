"""Participant selection for federated testing.

Serves two query shapes: a deviation bound ("how many participants keep the
sample mean within a tolerance of the population mean") answered from a
finite-population concentration bound, and a categorical preference vector
answered by a greedy cover plus a makespan-minimizing assignment. An exact
solver, a threshold search over completion times, doubles as the correctness
oracle on small instances.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .errors import (BudgetExceededError, InfeasibleQueryError, SizeGuardError,
                     TableParseError, read_table, require_finite)

# Largest instance, clients x categories, the exact solver accepts.
_EXACT_MAX_CLIENTS, _EXACT_MAX_CATEGORIES = 20, 5
# (speed, bandwidth, transfer_bytes) of a client missing from the client table.
_DEFAULT_CLIENT = (10.0, 1e6, 1e6)
_INT64_MAX = int(np.iinfo(np.int64).max)
# A preference total must stay below this. Capacities are clipped to the
# preference, so no cell or row total reaches it and the flow solver's int32
# edges hold every count.
_MAX_DEMAND = 2 ** 31
# Most cells, clients x (largest category + 1), a capacity file may need in
# its dense int64 matrix: 1 GiB. It admits 10^6 clients x 30 categories.
_MAX_CAPACITY_CELLS = 2 ** 27
# Cells of one vectorised block, about 0.5 MB: Monte-Carlo trials per draw
# times distinct count values, or greedy-cover clients times categories.
_BLOCK_CELLS = 2 ** 16
# Greedy-cover tail. After _STREAK stale heap tops in one pick, up to
# _REFRESH heap entries are refreshed in one step. Candidates that fit one
# block are rescanned in full at each pick once a pick refreshes
# 1/_SCAN_SHARE of them, until _CALM_SCANS picks in a row lower fewer.
_STREAK, _REFRESH = 8, 256
_SCAN_SHARE, _CALM_SCANS = 16, 4


@dataclass(frozen=True)
class DeviationQuery:
    """Deviation-bound request: tolerance and confidence over N clients.

    ``sample_count_range`` is the global (min, max) number of samples a
    client can hold, in the same units as the tolerance.
    """

    tolerance: float
    population: int
    sample_count_range: tuple[float, float]
    confidence: float = 0.95

    def __post_init__(self):
        lo, hi = self.sample_count_range
        require_finite(tolerance=self.tolerance, sample_count_min=lo,
                       sample_count_max=hi)
        if not hi > lo:
            raise ValueError("sample_count_range max must exceed min")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if isinstance(self.population, bool) \
                or not isinstance(self.population, (int, np.integer)):
            raise ValueError(f"population must be an integer, got {self.population!r}")
        if self.population < 1:
            raise ValueError("population must be >= 1")


def estimate_participant_count(query: DeviationQuery) -> int:
    """Smallest participant count meeting the deviation bound, in [1, N].

    The bound is (N+1) / (1 - (2N / ln(1-delta)) * (eps/range)^2); the log is
    natural and negative for delta in (0, 1), so the denominator exceeds 1.
    """
    n_total = query.population
    lo, hi = query.sample_count_range
    spread = hi - lo
    denom = 1.0 - (2.0 * n_total / math.log(1.0 - query.confidence)) \
        * (query.tolerance / spread) ** 2
    needed = (n_total + 1) / denom
    return min(n_total, max(1, math.ceil(needed)))


def verify_bound_montecarlo(query: DeviationQuery,
                            population_counts: Sequence[float],
                            n: int, trials: int, seed: int = 0) -> float:
    """Empirical violation rate of the deviation bound.

    Draws ``trials`` simple random samples of ``n`` clients without
    replacement and reports the fraction whose sample mean deviates from the
    population mean by at least the query tolerance. A sample's mean depends
    only on how many of its clients hold each distinct count, and those
    numbers are multivariate hypergeometric over the count multiplicities, so
    each trial draws them (in blocks of trials) instead of ``n`` client ids.

    Where it is much cheaper, the draw takes two exact stages. The sorted
    distinct counts are cut into bands spanning less than the tolerance, and
    each trial first draws only its band totals. Those bound the sample mean
    between the totals times the band minima and maxima; a trial whose
    bounds clear the tolerance on one side, by more than the rounding of the
    sums, is settled as a violation or not. Only the other trials draw their
    counts within each band, one multivariate hypergeometric per band given
    its total, and are judged by the sample mean itself. The rate is equal
    in distribution to the one-stage draw's, not bit-identical; where no band
    merges two counts, the draw is the one-stage draw.
    """
    for name, value in (("n", n), ("trials", trials)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    counts = np.asarray(population_counts, dtype=float)
    if counts.shape != (query.population,):
        raise ValueError("population_counts must have one entry per client")
    if not np.all(np.isfinite(counts)):
        raise ValueError("population counts must be finite")
    lo, hi = query.sample_count_range
    if counts.min() < lo or counts.max() > hi:
        raise ValueError("population counts fall outside the declared range")
    if not 1 <= n <= query.population:
        raise ValueError("n must be in [1, population]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n == query.population:
        return 0.0  # every sample is the whole population
    rng = np.random.default_rng(seed)
    values, multiplicity = np.unique(counts, return_counts=True)
    pop_mean = counts.mean()
    tolerance = query.tolerance
    # Both methods are exact in distribution. "count" costs about one step
    # per item drawn, min(n, N - n) of them; "marginals" one hypergeometric
    # draw per distinct value, each worth some 8 steps (measured at N = 10^4).
    # Bands pay off where refining a trial, a draw per value, costs at most
    # two direct trials, and the band totals at most half the direct draw.
    spare = min(n, query.population - n)
    draws = multiplicity
    if 4 * values.size <= spare:
        starts = _bands(values, tolerance)
        if 16 * starts.size <= min(8 * values.size, spare):
            draws = np.add.reduceat(multiplicity, starts)
    banded = draws.size < values.size
    block = max(1, _BLOCK_CELLS // values.size)
    method = "marginals" if 8 * draws.size < spare else "count"
    violations, waiting = 0, []
    for begin in range(0, trials, block):
        held = rng.multivariate_hypergeometric(
            draws, n, size=min(block, trials - begin), method=method)
        if banded:
            over, within = _settle(held, values, starts, n, pop_mean, tolerance)
            violations += int(np.count_nonzero(over))
            # Refine the unsettled trials of a block's worth at once.
            waiting.append(held[~(over | within)])
            if sum(map(len, waiting)) < block and begin + block < trials:
                continue
            held = _draw_within_bands(rng, np.concatenate(waiting),
                                      multiplicity, starts)
            waiting = []
        deviation = np.abs(held @ values / n - pop_mean)
        violations += int(np.count_nonzero(deviation >= tolerance))
    return violations / trials


def _bands(values: np.ndarray, tolerance: float) -> np.ndarray:
    """First index of each band of the sorted ``values``: the cells of width
    ``tolerance`` from the smallest, or one band per value where the cell
    numbers would pass a float's exact integers."""
    cells = (float(values[-1]) - float(values[0])) / float(tolerance)
    if not cells < 2.0 ** 52:
        return np.arange(values.size)
    cell = np.floor((values - values[0]) / tolerance)
    return np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])


def _settle(totals: np.ndarray, values: np.ndarray, starts: np.ndarray,
            n: int, pop_mean: float, tolerance: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the trials that their band ``totals`` decide: those whose
    sample mean deviates by at least ``tolerance``, and those within it.

    The totals times the band minima and maxima bound each sample mean. A
    trial is decided only where its bounds clear the tolerance by more than
    the rounding of these sums and of ``|held @ values / n - pop_mean|`` (one
    rounding per term at most, each term below the largest |value|), so the
    verdict is always that of the sample mean formula.
    """
    ends = np.append(starts[1:], values.size) - 1
    margin = 8 * (values.size + 4) * np.finfo(float).eps \
        * (max(abs(values[0]), abs(values[-1])) + abs(pop_mean))
    low = totals @ values[starts] / n - pop_mean
    high = totals @ values[ends] / n - pop_mean
    over = (low >= tolerance + margin) | (high <= -tolerance - margin)
    within = (high < tolerance - margin) & (low > margin - tolerance)
    return over, within


def _draw_within_bands(rng: np.random.Generator, totals: np.ndarray,
                       multiplicity: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Counts per value given each row's band ``totals``.

    Given its total, a band's counts are multivariate hypergeometric over its
    values' multiplicities, independently of the other bands. Each is drawn
    value by value (the "marginals" method), for every row and band at once.
    """
    sizes = np.diff(np.append(starts, multiplicity.size))
    # Multiplicity of the values after each one in its band.
    cumulative = np.cumsum(multiplicity)
    after = np.repeat(cumulative[starts + sizes - 1], sizes) - cumulative
    held = np.empty((totals.shape[0], multiplicity.size), dtype=np.int64)
    left = totals.copy()
    for k in range(int(sizes.max()) if totals.size else 0):
        bands = np.flatnonzero(sizes > k)
        cols = starts[bands] + k
        take = left[:, bands]
        inner = sizes[bands] > k + 1    # the last value takes what is left
        if inner.any():
            take[:, inner] = rng.hypergeometric(
                multiplicity[cols[inner]], after[cols[inner]], take[:, inner])
        held[:, cols] = take
        left[:, bands] -= take
    return held


@dataclass
class DistributionQuery:
    """Preference-vector request over clients with known capacities.

    ``capacities[n][i]`` is how many category-``i`` samples client ``n`` can
    contribute; a count above the category's preference acts as that
    preference. ``speeds`` are samples/second, ``bandwidths`` bytes/second
    and ``transfer_sizes`` bytes. The preference total must be below 2^31.
    """

    client_ids: tuple[str, ...]
    capacities: np.ndarray
    preference: np.ndarray
    budget: int
    speeds: np.ndarray
    bandwidths: np.ndarray
    transfer_sizes: np.ndarray

    def __post_init__(self):
        self.client_ids = tuple(self.client_ids)
        if len(set(self.client_ids)) != len(self.client_ids):
            raise ValueError("client_ids must be unique")
        self.capacities = np.asarray(self.capacities, dtype=np.int64)
        self.preference = np.asarray(self.preference, dtype=np.int64)
        self.speeds = np.asarray(self.speeds, dtype=float)
        self.bandwidths = np.asarray(self.bandwidths, dtype=float)
        self.transfer_sizes = np.asarray(self.transfer_sizes, dtype=float)
        n = len(self.client_ids)
        i = self.preference.size
        if self.capacities.shape != (n, i):
            raise ValueError("capacities must be (clients, categories)")
        for name, arr in (("speeds", self.speeds),
                          ("bandwidths", self.bandwidths),
                          ("transfer_sizes", self.transfer_sizes)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have one entry per client")
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite and nonnegative")
        if np.any(self.capacities < 0):
            raise ValueError("capacities must be nonnegative")
        # Each entry is bounded before the sum, so the sum cannot wrap.
        pref = self.preference
        if np.any((pref < 0) | (pref >= _MAX_DEMAND)) \
                or not 0 < pref.sum() < _MAX_DEMAND:
            raise ValueError(f"preference must be nonnegative with a total "
                             f"in (0, {_MAX_DEMAND})")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")

    @property
    def n_clients(self) -> int:
        return len(self.client_ids)

    @property
    def n_categories(self) -> int:
        return int(self.preference.size)


@dataclass
class Assignment:
    """Per-client per-category sample counts plus the resulting makespan."""

    samples: dict[str, tuple[int, ...]] = field(default_factory=dict)
    objective_seconds: float = 0.0

    @property
    def participant_count(self) -> int:
        return sum(1 for counts in self.samples.values() if any(c > 0 for c in counts))


def validate_assignment(query: DistributionQuery, assignment: Assignment) -> None:
    """Check the preference, capacity and budget constraints exactly."""
    index = {cid: i for i, cid in enumerate(query.client_ids)}
    totals = np.zeros(query.n_categories, dtype=np.int64)
    active = 0
    for cid, counts in assignment.samples.items():
        if cid not in index:
            raise ValueError(f"assignment references unknown client {cid!r}")
        vec = np.asarray(counts, dtype=np.int64)
        if vec.shape != (query.n_categories,):
            raise ValueError(f"client {cid!r} has a malformed count vector")
        if np.any(vec < 0):
            raise ValueError(f"client {cid!r} has negative counts")
        if np.any(vec > query.capacities[index[cid]]):
            raise ValueError(f"client {cid!r} exceeds its capacity")
        if vec.sum() > 0:
            active += 1
        totals += vec
    if not np.array_equal(totals, query.preference):
        raise ValueError(
            f"preference not met exactly: got {totals.tolist()}, "
            f"want {query.preference.tolist()}")
    if active > query.budget:
        raise ValueError(f"{active} participants exceed budget {query.budget}")


def compile_representative_preference(global_counts: Sequence[int],
                                      total_samples: int) -> np.ndarray:
    """Scale the global categorical distribution to a fixed total.

    Largest-remainder rounding, so the result sums to ``total_samples``.
    """
    counts = np.asarray(global_counts, dtype=float)
    if np.any(counts < 0) or counts.sum() <= 0:
        raise ValueError("global_counts must be nonnegative with a positive total")
    if not 1 <= total_samples < _MAX_DEMAND:  # a preference total
        raise ValueError(f"total_samples must be in [1, {_MAX_DEMAND})")
    shares = counts / counts.sum() * total_samples
    base = np.floor(shares).astype(np.int64)
    leftover = total_samples - int(base.sum())
    if leftover > 0:
        order = np.lexsort((np.arange(counts.size), -(shares - base)))
        base[order[:leftover]] += 1
    return base


# -- query and assignment files ------------------------------------------------


def read_capacity_file(path: str) -> tuple[list[str], np.ndarray]:
    """Tabular capacity matrix: one (client_id, category, count) row per cell.

    The matrix is dense, so a file whose clients times (largest category + 1)
    would pass ``_MAX_CAPACITY_CELLS`` is rejected at the row that passes it,
    before the matrix is allocated.
    """
    cells: dict[tuple[str, int], int] = {}
    clients: set[str] = set()
    width = 0
    columns = ("client_id", "category", "count")
    for line_no, cid, (cat, count) in read_table(path, columns, int):
        if cat < 0 or count < 0:
            raise TableParseError(path, line_no, "category and count must be >= 0")
        if max(cat, count) > _INT64_MAX:
            raise TableParseError(path, line_no,
                                  "category and count must be < 2**63")
        if (cid, cat) in cells:
            raise TableParseError(path, line_no,
                                  f"duplicate row for {cid!r}, category {cat}")
        clients.add(cid)
        width = max(width, cat + 1)
        if len(clients) * width > _MAX_CAPACITY_CELLS:
            raise TableParseError(
                path, line_no, f"a {len(clients)} x {width} capacity matrix "
                f"passes the limit of {_MAX_CAPACITY_CELLS} cells")
        cells[cid, cat] = count
    if not cells:
        raise TableParseError(path, 1, "no capacity rows")
    ids = sorted({cid for cid, _ in cells})
    row_of = {cid: i for i, cid in enumerate(ids)}
    caps = np.zeros((len(ids), 1 + max(cat for _, cat in cells)), dtype=np.int64)
    for (cid, cat), count in cells.items():
        caps[row_of[cid], cat] = count
    return ids, caps


def read_client_table(path: str) -> dict[str, tuple[float, float, float]]:
    """Per-client (speed, bandwidth, transfer_bytes) rows."""
    out: dict[str, tuple[float, float, float]] = {}
    columns = ("client_id", "speed", "bandwidth", "transfer_bytes")
    for line_no, cid, values in read_table(path, columns):
        if min(values) < 0:
            raise TableParseError(path, line_no, "speed, bandwidth and "
                                                 "transfer_bytes must be >= 0")
        if cid in out:
            raise TableParseError(path, line_no, f"duplicate client_id {cid!r}")
        out[cid] = tuple(values)
    return out


def _int_at_least(value: object, name: str, least: int) -> int:
    """``value`` if it is an int (not a bool) of at least ``least``."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def load_distribution_query(descriptor: dict, client_ids: list[str],
                            capacities: np.ndarray,
                            client_table: Mapping[str, tuple[float, float, float]]
                            | None = None) -> DistributionQuery:
    """Assemble a query from a descriptor dict plus the capacity matrix.

    The descriptor carries either an explicit ``preference`` vector or a
    ``representative_samples`` total to be spread like the global
    distribution, plus the participant ``budget``. A client missing from
    ``client_table`` gets speed 10, bandwidth 1e6 and transfer 1e6.
    """
    if not isinstance(descriptor, dict):
        raise ValueError("query descriptor must be a JSON object")
    if "budget" not in descriptor:
        raise ValueError("query descriptor needs a budget")
    budget = _int_at_least(descriptor["budget"], "budget", 1)
    if "preference" in descriptor:
        values = descriptor["preference"]
        if not isinstance(values, list):
            raise ValueError("preference must be a list of integers >= 0")
        try:
            preference = np.array([_int_at_least(v, "preference entry", 0)
                                   for v in values], dtype=np.int64)
        except OverflowError as exc:
            raise ValueError(f"preference entry is out of range: {exc}") from exc
        if preference.size != capacities.shape[1]:
            raise ValueError("preference length does not match capacity categories")
    elif "representative_samples" in descriptor:
        preference = compile_representative_preference(
            capacities.sum(axis=0, dtype=float),  # int64 totals can wrap
            _int_at_least(descriptor["representative_samples"],
                          "representative_samples", 1))
    else:
        raise ValueError("query descriptor needs preference or representative_samples")
    table = client_table or {}
    speeds, bandwidths, transfers = [], [], []
    for cid in client_ids:
        speed, bandwidth, transfer = table.get(cid, _DEFAULT_CLIENT)
        speeds.append(speed)
        bandwidths.append(bandwidth)
        transfers.append(transfer)
    return DistributionQuery(
        client_ids=tuple(client_ids),
        capacities=capacities,
        preference=preference,
        budget=budget,
        speeds=np.asarray(speeds),
        bandwidths=np.asarray(bandwidths),
        transfer_sizes=np.asarray(transfers),
    )


def write_assignment_file(path: str, assignment: Assignment) -> None:
    """Tabular assignment: one (client_id, category, samples) row per positive cell."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("client_id\tcategory\tsamples\n")
        for cid in sorted(assignment.samples):
            for cat, count in enumerate(assignment.samples[cid]):
                if count > 0:
                    fh.write(f"{cid}\t{cat}\t{count}\n")


# -- solvers -----------------------------------------------------------------


def greedy_cover(query: DistributionQuery) -> Assignment:
    """Two-phase heuristic: greedy subset cover, then makespan optimization.

    Phase 1 (:func:`_greedy_picks`) repeatedly picks the client contributing
    the most samples toward the not-yet-satisfied categories. Its picks
    while no contribution can have fallen come in one vectorised step, the
    rest from a lazy heap or a full rescan. Phase 2 is
    :func:`min_makespan_assignment` over the chosen subset (budget constraint
    dropped). Phase 2 may leave a pick without samples, so the budget is
    checked against the clients its assignment uses, not the picks.
    """
    caps = _effective_capacities(query)
    _check_capacity(query, caps)
    picked = _greedy_picks(caps, query.preference, query.client_ids)
    assignment = min_makespan_assignment(query, sorted(picked))
    if assignment.participant_count > query.budget:
        raise BudgetExceededError(required=assignment.participant_count,
                                  budget=query.budget)
    return assignment


def exact_milp(query: DistributionQuery) -> Assignment:
    """Globally optimal makespan by threshold search over completion times.

    At each trial makespan, :func:`_cover_within` seeks a client set within
    the budget that passes every cut row of :func:`_cut_rows`; the set found
    at the smallest such time is assigned by :func:`min_makespan_assignment`.
    Guarded to small instances; use :func:`greedy_cover` beyond the guard.
    """
    if query.n_clients > _EXACT_MAX_CLIENTS \
            or query.n_categories > _EXACT_MAX_CATEGORIES:
        raise SizeGuardError(
            f"instance {query.n_clients} clients x {query.n_categories} "
            f"categories exceeds the exact-solver guard "
            f"({_EXACT_MAX_CLIENTS} x {_EXACT_MAX_CATEGORIES})")
    caps = _effective_capacities(query)
    _check_capacity(query, caps)
    budget = min(query.budget, query.n_clients)
    row_sums, need = _cut_rows(caps, query.preference)
    row_caps, speeds = caps.sum(axis=1), query.speeds
    transfers = _transfer_times(query, range(query.n_clients))
    chosen = _cover_within(row_caps, row_sums, need, budget)
    if chosen is None:
        raise InfeasibleQueryError(dict(enumerate(query.preference.tolist())))
    hi = float(np.max(row_caps[chosen] / speeds[chosen] + transfers[chosen]))
    chosen = _threshold_search(
        lambda t: _cover_within(_caps_at(t, speeds, transfers, row_caps),
                                row_sums, need, budget),
        chosen, hi, speeds, transfers, row_caps)
    return min_makespan_assignment(query, sorted(chosen))


# -- internals ----------------------------------------------------------------


def _effective_capacities(query: DistributionQuery,
                          subset: Sequence[int] | None = None) -> np.ndarray:
    """What the solvers can draw on: the capacities of all clients, or of the
    ``subset`` rows, with unusable clients zeroed and each cell clipped to
    its category's preference.

    A client with zero speed, or a positive transfer over zero bandwidth,
    can never finish, so its capacity can never be drawn on; nor can any
    count above what its category asks for. So no cell or row total passes
    the preference total, which is below 2^31. Where nothing is zeroed or
    clipped, all clients' capacities are the query's own array, not a copy;
    callers only read it.
    """
    rows = slice(None) if subset is None else subset
    usable = (query.speeds[rows] > 0) & ((query.transfer_sizes[rows] == 0)
                                         | (query.bandwidths[rows] > 0))
    caps = query.capacities[rows]
    if not usable.all():
        caps = np.where(usable[:, None], caps, 0)
    if np.any(caps.max(axis=0, initial=0) > query.preference):
        caps = np.minimum(caps, query.preference)
    return caps


def _check_capacity(query: DistributionQuery, caps: np.ndarray) -> None:
    totals = caps.sum(axis=0)
    short = {int(i): int(query.preference[i] - totals[i])
             for i in range(query.n_categories) if totals[i] < query.preference[i]}
    if short:
        raise InfeasibleQueryError(short)


def _greedy_picks(caps: np.ndarray, preference: np.ndarray,
                  client_ids: Sequence[str]) -> list[int]:
    """Greedy cover rows in pick order: each pick has the largest
    contribution ``sum_i min(caps[n, i], remaining[i])``, ties to the first
    client id. ``caps`` are at most ``preference`` (as
    :func:`_effective_capacities` gives them), so a first contribution is a
    row total.

    A contribution can only fall as categories fill. It has not fallen yet
    while each category's remaining demand is at least the largest cell in
    its column, so until then greedy takes the clients in order of their
    first contribution: that head is taken in one vectorised step
    (:func:`_bulk_head`), and :func:`_tail_picks` picks the rest.
    """
    size = len(caps)
    order = np.array(sorted(range(size), key=client_ids.__getitem__),
                     dtype=np.int64)
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(size)
    contrib = caps.sum(axis=1)
    live = np.flatnonzero(contrib > 0)
    keys = np.sort(rank[live] - contrib[live] * size)
    ahead = order[keys % size]
    head, taken = _bulk_head(caps, preference, ahead,
                             preference - caps.max(axis=0, initial=0))
    picked = ahead[:head].tolist()
    _tail_picks(caps, preference - taken, order, keys[head:].tolist(), picked)
    return picked


def _bulk_head(caps: np.ndarray, preference: np.ndarray, ahead: np.ndarray,
               slack: np.ndarray) -> tuple[int, np.ndarray]:
    """How many of the clients ``ahead`` greedy picks first, in that order,
    and the samples they fill per category.

    ``ahead`` is in greedy order of first contributions, and ``slack`` is
    each category's demand less its largest capacity. Every contribution is
    still its first while no category has filled more than its slack, so the
    head runs through the first pick after which one has. The rows are
    gathered in blocks of about ``_BLOCK_CELLS`` cells into one buffer.
    """
    taken = np.zeros_like(preference)
    step = max(1, _BLOCK_CELLS // max(1, caps.shape[1]))
    buffer = np.empty((min(step, len(ahead)), caps.shape[1]), dtype=np.int64)
    for lo in range(0, len(ahead), step):
        filled = np.take(caps, ahead[lo:lo + step], axis=0,
                         out=buffer[:min(step, len(ahead) - lo)])
        np.cumsum(filled, axis=0, out=filled)
        filled += taken
        over = (filled > slack).any(axis=1).nonzero()[0]
        if over.size:
            return lo + int(over[0]) + 1, filled[over[0]].copy()
        taken = filled[-1].copy()
    return len(ahead), taken


def _tail_picks(caps: np.ndarray, remaining: np.ndarray, order: np.ndarray,
                heap: list[int], picked: list[int]) -> None:
    """Greedy picks after the head, appended to ``picked``.

    ``heap`` holds the other live clients' keys ``rank - contribution *
    clients`` at their first contributions, in ascending order: the smallest
    is the largest contribution, ties to the first id. A contribution is at
    most the preference total, below 2^31, so with fewer than 2^32 clients
    every key fits in int64. A contribution can only fall, so these bound
    it from above. Picks alternate between :func:`_lazy_picks`, which keeps
    the bounds in the heap, and :func:`_scan_picks`, which recomputes every
    contribution at each pick and is cheaper once most of a small heap goes
    stale between picks.
    """
    left = int(remaining.sum())
    scan = len(heap) * caps.shape[1] <= _BLOCK_CELLS
    while left > 0:
        if scan:
            heap, left = _scan_picks(caps, remaining, order, heap, left, picked)
        else:
            left = _lazy_picks(caps, remaining, order, heap, left, picked)
        scan = not scan


def _lazy_picks(caps: np.ndarray, remaining: np.ndarray, order: np.ndarray,
                heap: list[int], left: int, picked: list[int]) -> int:
    """Lazy greedy (Minoux, 1978) over the heap of keys ``rank -
    contribution * clients``: the top is taken once its key is fresh. After
    ``_STREAK`` stale tops, up to ``_REFRESH`` are refreshed in one step.

    Returns the demand left: 0, or more once the heap is empty, or once one
    pick has refreshed ``1/_SCAN_SHARE`` of a heap that fits a block.
    """
    size, categories = caps.shape
    fresh: set[int] = set()  # ranks keyed by their contribution now
    streak = 0  # stale entries refreshed since the last pick
    while left > 0 and heap:
        if _SCAN_SHARE * streak >= len(heap) \
                and len(heap) * categories <= _BLOCK_CELLS:
            break
        rank = heap[0] % size
        if streak >= _STREAK and rank not in fresh:
            stale = np.array([heapq.heappop(heap) % size
                              for _ in range(min(streak, _REFRESH, len(heap)))])
            streak += len(stale)
            contrib = np.minimum(caps[order[stale]], remaining).sum(axis=1)
            alive = contrib > 0
            for key in (stale[alive] - contrib[alive] * size).tolist():
                heapq.heappush(heap, key)
            fresh.update(stale[alive].tolist())
            continue
        heapq.heappop(heap)
        row = int(order[rank])
        gain = np.minimum(caps[row], remaining)
        filled = int(gain.sum())
        if filled == 0:
            continue  # fills nothing now, so nothing later either
        key = rank - filled * size
        if heap and key > heap[0]:
            heapq.heappush(heap, key)
            fresh.add(rank)
            streak += 1
            continue
        picked.append(row)
        remaining -= gain
        left -= filled
        fresh.clear()
        streak = 0
    return left


def _scan_picks(caps: np.ndarray, remaining: np.ndarray, order: np.ndarray,
                heap: list[int], left: int,
                picked: list[int]) -> tuple[list[int], int]:
    """Greedy picks by recomputing every candidate's contribution at each
    pick, over the heap's clients in id order.

    Returns the heap rebuilt from the latest contributions, and the demand
    left: 0, or more once ``_CALM_SCANS`` picks in a row have each lowered
    under ``1/_SCAN_SHARE`` of the contributions, so the heap is cheaper.
    """
    size = len(order)
    ranks = np.sort(np.array([key % size for key in heap], dtype=np.int64))
    cells = caps[order[ranks]]
    work = np.empty_like(cells)
    last, calm = None, 0
    while left > 0:
        contrib = np.minimum(cells, remaining, out=work[:len(cells)]).sum(axis=1)
        top = contrib.max(initial=0)
        if top == 0:
            raise InfeasibleQueryError({int(i): int(remaining[i])
                                        for i in np.flatnonzero(remaining > 0)})
        if last is not None:
            fell = np.count_nonzero(contrib < last)
            calm = calm + 1 if _SCAN_SHARE * fell < len(last) else 0
            if calm >= _CALM_SCANS:
                keep = contrib > 0
                heap = (ranks[keep] - contrib[keep] * size).tolist()
                heap.sort()
                return heap, left
        best = int((contrib == top).nonzero()[0][0])  # the first: ranks ascend
        picked.append(int(order[ranks[best]]))
        remaining -= work[best]
        left -= int(top)
        cells[best] = 0
        contrib[best] = 0
        last = contrib
        if 2 * np.count_nonzero(contrib) < len(contrib):
            keep = contrib > 0
            ranks, cells, last = ranks[keep], cells[keep], contrib[keep]
    return [], 0


def _transfer_times(query: DistributionQuery, subset: Sequence[int]) -> np.ndarray:
    """Upload seconds per client: 0 with nothing to send, inf without bandwidth."""
    sizes = query.transfer_sizes[subset]
    bandwidths = query.bandwidths[subset]
    out = np.where(sizes == 0, 0.0, math.inf)
    sends = (sizes != 0) & (bandwidths > 0)
    out[sends] = sizes[sends] / bandwidths[sends]
    return out


def _flow_graph(caps_sub: np.ndarray, totals: np.ndarray,
                preference: np.ndarray) -> csr_matrix:
    """Transportation network of :func:`_feasible_flow` as a CSR matrix.

    Node 0 is the source, 1..n the clients, n+1..n+i the categories and n+i+1
    the sink. Only positive capacities become edges: source -> client (total
    cap), client -> category (cell cap, row-major), category -> sink (demand).
    Each row's edges are already in ascending column order, so the edge
    arrays are the CSR arrays. Capacities from :func:`_effective_capacities`
    keep every count below 2^31, so the arrays are int32.
    """
    n, i = caps_sub.shape
    sink = 1 + n + i
    senders = np.flatnonzero(totals > 0)
    cells = caps_sub > 0
    client, category = np.nonzero(cells)
    wanted = np.flatnonzero(preference > 0)
    vals = np.concatenate((totals[senders], caps_sub[cells], preference[wanted]))
    indices = np.concatenate((1 + senders, 1 + n + category,
                              np.full(wanted.size, sink)))
    per_row = np.zeros(sink + 1, dtype=np.int64)
    per_row[0] = senders.size
    per_row[1:1 + n] = cells.sum(axis=1)
    per_row[1 + n + wanted] = 1
    indptr = np.concatenate(([0], np.cumsum(per_row)))
    return csr_matrix((vals.astype(np.int32), indices.astype(np.int32),
                       indptr.astype(np.int32)), shape=(sink + 1, sink + 1))


def _feasible_flow(caps_sub: np.ndarray, totals: np.ndarray,
                   preference: np.ndarray) -> np.ndarray | None:
    """Assignment matrix meeting per-client totals and category demands, or None.

    Transportation feasibility solved as max-flow over :func:`_flow_graph`.
    """
    n, i = caps_sub.shape
    demand = int(preference.sum())
    if demand == 0:
        return np.zeros((n, i), dtype=np.int64)
    result = maximum_flow(_flow_graph(caps_sub, totals, preference), 0, 1 + n + i)
    if result.flow_value < demand:
        return None
    # Client rows of the flow hold the reverse source edge (column 0) and one
    # entry per client -> category edge; each (row, column) appears once.
    flow = result.flow
    lo, hi = flow.indptr[1], flow.indptr[1 + n]
    cols = flow.indices[lo:hi]
    rows = np.repeat(np.arange(n), np.diff(flow.indptr[1:n + 2]))
    out = cols > n
    assign = np.zeros((n, i), dtype=np.int64)
    assign[rows[out], cols[out] - 1 - n] = np.maximum(flow.data[lo:hi][out], 0)
    return assign


def min_makespan_assignment(query: DistributionQuery,
                            subset: list[int]) -> Assignment:
    """Budget-free minimum makespan over the given clients.

    Searches the makespan (:func:`_threshold_search`) first on two checks any
    feasible flow passes: each wanted category, and all of them together, can
    be filled by what the clients send within it. One flow probe at that
    floor usually settles it; only if it fails does the search go on above
    the floor with a flow feasibility check at every probe.
    """
    caps_sub = _effective_capacities(query, subset)
    preference = query.preference
    speeds, transfers = query.speeds[subset], _transfer_times(query, subset)
    row_caps = caps_sub.sum(axis=1)
    # With every client sending up to its row total, the flow is infeasible
    # exactly when some category's column total is short.
    _check_capacity(query, caps_sub)
    baseline = _feasible_flow(caps_sub, row_caps, preference)
    hi = _makespan(baseline, speeds, transfers)
    wanted = np.flatnonzero(preference > 0)
    cells, demand = caps_sub[:, wanted], preference[wanted]

    def fills(t: float) -> float | None:
        sent = _caps_at(t, speeds, transfers, row_caps)
        if sent.sum() < demand.sum() \
                or np.any(np.minimum(sent[:, None], cells).sum(axis=0) < demand):
            return None
        return t

    def flow_at(t: float) -> np.ndarray | None:
        return _feasible_flow(caps_sub, _caps_at(t, speeds, transfers, row_caps),
                              preference)

    # No flow is feasible below the floor, so one feasible at the floor is
    # the flow search's own result there. At ``hi`` that result is the
    # baseline (a flow at row totals), not a flow at ``_caps_at(hi)``.
    best_flow = baseline
    floor = _threshold_search(fills, hi, hi, speeds, transfers, row_caps)
    if floor < hi:
        best_flow = flow_at(floor)
        if best_flow is None:
            best_flow = _threshold_search(flow_at, baseline, hi, speeds,
                                          transfers, row_caps, lo=floor)
    return _to_assignment(query, subset, best_flow, speeds, transfers)


def _caps_at(makespan: float, speeds: np.ndarray, transfers: np.ndarray,
             row_caps: np.ndarray) -> np.ndarray:
    """Samples each client can train on and upload within ``makespan`` seconds."""
    usable = (makespan - transfers > 0) & (speeds > 0)
    totals = np.zeros(len(speeds), dtype=np.int64)
    totals[usable] = _times_within(makespan, speeds[usable], transfers[usable])
    return np.minimum(totals, row_caps)


def _times_within(makespan: float, speeds: np.ndarray,
                  transfers: np.ndarray) -> np.ndarray:
    """How many of each client's completion times ``k / speed + transfer`` are
    at or below ``makespan``, before any cap; at most 0 before the transfer.

    The floor of ``(makespan - transfer) * speed`` can be one off either way,
    as the subtraction and the product round, so the count is stepped to the
    last time that, computed as above, is within ``makespan``.
    """
    k = np.floor((makespan - transfers) * speeds)
    k += (k + 1) / speeds + transfers <= makespan
    return k - (k / speeds + transfers > makespan)


def _threshold_search(probe, witness, hi: float, speeds: np.ndarray,
                      transfers: np.ndarray, sizes: np.ndarray,
                      lo: float = 0.0):
    """Result of ``probe`` at the smallest makespan where it is not None.

    ``witness`` is its result at ``hi``; it is known to fail at ``lo``. One of
    the completion times ``k / speed + transfer`` (k = 1..sizes) in (lo, hi]
    is optimal, so this bisects them without listing them: each step probes
    the latest time at or below the midpoint between ``hi`` and ``first``,
    the first time above the last failing probe (or ``lo``). Times are counted
    as :func:`_caps_at` counts them, so every probe is a completion time in
    [first, hi) and the span at least halves.
    """
    live = (speeds > 0) & np.isfinite(transfers)
    speeds, transfers, sizes = speeds[live], transfers[live], sizes[live]

    def first_above(t: float) -> float:
        # k indexes each client's first time above t.
        k = np.maximum(_times_within(t, speeds, transfers), 0) + 1
        return float(np.min(k / speeds + transfers, initial=math.inf,
                            where=k <= sizes))

    first = first_above(lo)
    while first < hi:
        k = np.minimum(_times_within(0.5 * (first + hi), speeds, transfers),
                       sizes)
        times = k / speeds + transfers
        at = float(np.max(times, initial=first, where=(k > 0) & (times < hi)))
        found = probe(at)
        if found is None:
            first = first_above(at)
        else:
            witness, hi = found, at
    return witness


def _cut_rows(caps: np.ndarray,
              preference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Capacity per client and demand of each nonempty set of wanted categories.

    Column r is the set given by the bits of r + 1. By min-cut (Gale's
    supply-demand theorem), clients that send at most ``t`` samples each meet
    the preference exactly when ``np.minimum(t[:, None], row_sums).sum(axis=0)
    >= need`` holds in every column.
    """
    wanted = np.flatnonzero(preference > 0)
    sets = np.arange(1, 2 ** wanted.size)
    members = (sets[None, :] >> np.arange(wanted.size)[:, None]) & 1
    return caps[:, wanted] @ members, preference[wanted] @ members


def _cover_within(totals: np.ndarray, row_sums: np.ndarray, need: np.ndarray,
                  budget: int) -> list[int] | None:
    """At most ``budget`` clients passing every cut row, or None.

    Depth-first over the clients by falling total value, each tried in before
    it is left out. A node is pruned when, in some row, the best ``slots``
    values still to come cannot meet the residual need. Plain lists, as
    numpy's sort kernels would add their pages to the resident set.
    """
    values = np.minimum(totals[:, None], row_sums).tolist()
    order = sorted(range(len(values)), key=lambda c: -sum(values[c]))
    rows = [[values[c][r] for c in order] for r in range(len(need))]  # per cut row

    def search(pos: int, slots: int, residual: list[int]) -> list[int] | None:
        if all(v <= 0 for v in residual):
            return []
        if any(sum(sorted(row[pos:], reverse=True)[:slots]) < v
               for row, v in zip(rows, residual)):
            return None
        client = order[pos]
        found = search(pos + 1, slots - 1,
                       [v - w for v, w in zip(residual, values[client])])
        return [client] + found if found is not None else search(pos + 1, slots, residual)

    return search(0, budget, need.tolist())


def _makespan(assign: np.ndarray, speeds: np.ndarray,
              transfers: np.ndarray) -> float:
    totals = assign.sum(axis=1)
    active = totals > 0
    if not np.any(active):
        return 0.0
    return float(np.max(totals[active] / speeds[active] + transfers[active]))


def _to_assignment(query: DistributionQuery, subset: list[int],
                   assign: np.ndarray, speeds: np.ndarray,
                   transfers: np.ndarray) -> Assignment:
    active = np.flatnonzero(assign.sum(axis=1) > 0)
    samples = {query.client_ids[subset[j]]: tuple(cells)
               for j, cells in zip(active.tolist(), assign[active].tolist())}
    return Assignment(samples=samples,
                      objective_seconds=_makespan(assign, speeds, transfers))
