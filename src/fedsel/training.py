"""Training-time participant selection.

Implements the client-utility model (loss-derived statistical utility with a
multiplicative straggler penalty), the pacer that adapts the preferred round
duration, and the exploration-exploitation selection pipeline with cutoff
admission, staleness incentives, robustness clipping, fairness blending and
optional utility perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Sequence, TextIO

import numpy as np

from .errors import EmptySelectionError

if TYPE_CHECKING:
    from .metastore import StoreView

UTILITY_MODES = ("loss_based", "gradient_norm_batches")

# Substream tags so the per-round RNG streams never collide.
_STREAM_NOISE = 0
_STREAM_EXPLOIT = 1
_STREAM_EXPLORE = 2


@dataclass(frozen=True)
class SelectorConfig:
    """Knobs of the training selector.

    ``pacer_step`` has no universal default: it is the unit by which the
    preferred round duration grows and must be sized to the workload.
    """

    pacer_step: float
    exploration_factor: float = 0.9
    exploration_decay: float = 0.98
    exploration_floor: float = 0.2
    straggler_penalty: float = 2.0
    pacer_window: int = 20
    cutoff_confidence: float = 95.0
    clip_percentile: float = 95.0
    blacklist_threshold: int = 10
    fairness_weight: float = 0.0
    utility_mode: str = "loss_based"
    noise_epsilon: float = 0.0

    def __post_init__(self):
        if not self.pacer_step > 0:
            raise ValueError("pacer_step must be > 0")
        if not 0.0 <= self.exploration_factor <= 1.0:
            raise ValueError("exploration_factor must be in [0, 1]")
        if not 0.0 < self.exploration_decay <= 1.0:
            raise ValueError("exploration_decay must be in (0, 1]")
        if self.exploration_floor < 0.0:
            raise ValueError("exploration_floor must be >= 0")
        if self.straggler_penalty < 0.0:
            raise ValueError("straggler_penalty must be >= 0")
        if self.pacer_window < 1:
            raise ValueError("pacer_window must be >= 1")
        if not 0.0 < self.cutoff_confidence <= 100.0:
            raise ValueError("cutoff_confidence must be in (0, 100]")
        if not 0.0 < self.clip_percentile <= 100.0:
            raise ValueError("clip_percentile must be in (0, 100]")
        if self.blacklist_threshold < 1:
            raise ValueError("blacklist_threshold must be >= 1")
        if not 0.0 <= self.fairness_weight <= 1.0:
            raise ValueError("fairness_weight must be in [0, 1]")
        if self.utility_mode not in UTILITY_MODES:
            raise ValueError(f"utility_mode must be one of {UTILITY_MODES}")
        if self.noise_epsilon < 0.0:
            raise ValueError("noise_epsilon must be >= 0")


@dataclass(frozen=True)
class UtilityBreakdown:
    """Per-client utility decomposition for one selection round."""

    client_id: str
    stat_component: float
    staleness_bonus: float
    system_factor: float
    fairness_component: float
    final_utility: float


def statistical_utility(sample_losses: Sequence[float]) -> float:
    """Utility of a bin of samples: bin size times the RMS of the losses.

    An empty bin contributes nothing and scores 0.
    """
    n = len(sample_losses)
    if n == 0:
        return 0.0
    losses = np.asarray(sample_losses, dtype=float)
    if not np.all(np.isfinite(losses)) or np.any(losses < 0):
        raise ValueError("sample losses must be finite and nonnegative")
    return float(n * math.sqrt(float(np.mean(losses * losses))))


def aggregate_statistical_utility(loss_sq_sum: float, bin_size: int) -> float:
    """Same utility from the pre-aggregated pair (sum of squared losses, bin size).

    This is the form that crosses the client boundary in a deployment, where
    per-sample losses never leave the device.
    """
    if bin_size < 0:
        raise ValueError("bin_size must be >= 0")
    if bin_size == 0:
        return 0.0
    if not math.isfinite(loss_sq_sum) or loss_sq_sum < 0:
        raise ValueError("loss_sq_sum must be finite and nonnegative")
    return bin_size * math.sqrt(loss_sq_sum / bin_size)


def gradient_norm_utility(batch_sq_norms: Iterable[float]) -> float:
    """Alternative utility: accumulated squared update norms over the round's batches."""
    total = 0.0
    for v in batch_sq_norms:
        if not math.isfinite(v) or v < 0:
            raise ValueError("batch squared norms must be finite and nonnegative")
        total += v
    return total


def system_penalty(utility: float, preferred_duration: float, duration: float,
                   alpha: float) -> float:
    """Scale ``utility`` down by (T/t)^alpha when the client is slower than T.

    Clients faster than the preferred duration are not rewarded; their
    completions do not shorten the round.
    """
    if preferred_duration <= 0 or duration <= 0:
        raise ValueError("durations must be > 0")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if duration <= preferred_duration:
        return utility
    return utility * (preferred_duration / duration) ** alpha


def staleness_bonus(round_index: int, last_round: int) -> float:
    """Confidence-style incentive sqrt(0.1 * ln(R) / last_round).

    Grows with the current round and shrinks the more recently the client
    participated, so long-overlooked clients get revisited.
    """
    if round_index < 1:
        raise ValueError("round_index must be >= 1")
    if last_round < 1:
        raise ValueError("last_round must be >= 1 (client never participated)")
    if last_round > round_index:
        raise ValueError("last_round cannot exceed round_index")
    return math.sqrt(0.1 * math.log(round_index) / last_round)


def pacer_tick(history: Sequence[float], round_index: int, window: int,
               preferred_duration: float, step: float) -> float:
    """Relax the preferred duration when achieved utility declined.

    ``history[r-1]`` is the total statistical utility achieved in round ``r``;
    entries for rounds 1..round_index-1 must be present. Compares the two most
    recent disjoint ``window``-round sums and adds ``step`` when the older one
    is larger. Inert until both windows are complete (round_index > 2*window).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if round_index <= 2 * window:
        return preferred_duration
    if len(history) < round_index - 1:
        raise ValueError("history must cover rounds 1..round_index-1")
    older = sum(history[round_index - 2 * window - 1:round_index - window - 1])
    newer = sum(history[round_index - window - 1:round_index - 1])
    if older > newer:
        return preferred_duration + step
    return preferred_duration


def scheduled_pacer_tick(history: Sequence[float], round_index: int, window: int,
                         preferred_duration: float, step: float) -> float:
    """Apply :func:`pacer_tick` on the step-window schedule.

    Evaluating the sliding condition every round would let T climb every
    round of a sustained decline; stepping once per window keeps the number
    of increases bounded by R/W + 1 over a run.
    """
    if (round_index - 1) % window != 0:
        return preferred_duration
    return pacer_tick(history, round_index, window, preferred_duration, step)


def clip_cap(values: Sequence[float] | np.ndarray, percentile: float) -> float:
    """Nearest-rank percentile of a utility distribution, used as the clip cap.

    An empty distribution imposes no cap.
    """
    if not 0.0 < percentile <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return math.inf
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    rank = max(math.ceil(percentile / 100.0 * vals.size), 1)
    return float(np.partition(vals, rank - 1)[rank - 1])


def exploration_fraction(config: SelectorConfig, round_index: int) -> float:
    """Exploration share for the given round.

    The initial factor decays multiplicatively each round while it is above
    the floor; a factor already at or below the floor stays put.
    """
    if round_index < 1:
        raise ValueError("round_index must be >= 1")
    if config.exploration_factor <= config.exploration_floor:
        return config.exploration_factor
    decayed = config.exploration_factor * config.exploration_decay ** (round_index - 1)
    return max(config.exploration_floor, decayed)


def perturb_utilities(rng: np.random.Generator,
                      values: Sequence[float] | np.ndarray,
                      noise_epsilon: float) -> np.ndarray:
    """Add zero-mean Gaussian noise with sigma = noise_epsilon * mean(values).

    The perturbed values are floored at 0 so they stay usable as sampling
    weights; the added noise itself is unbiased.
    """
    vals = np.array(values, dtype=np.float64)
    if noise_epsilon < 0:
        raise ValueError("noise_epsilon must be >= 0")
    if noise_epsilon == 0 or not vals.size:
        return vals
    sigma = noise_epsilon * float(np.mean(vals))
    if sigma <= 0:
        return vals
    noise = rng.normal(0.0, sigma, size=vals.size)
    return np.maximum(0.0, vals + noise)


def weighted_sample_without_replacement(rng: np.random.Generator,
                                        ids: Sequence,
                                        weights: Sequence[float] | np.ndarray,
                                        k: int) -> list:
    """Draw up to ``k`` distinct ids with probability proportional to weight.

    Sequential draws with renormalization. Callers pass ``ids`` in a
    deterministic order (client-id order) so equal weights break ties
    reproducibly. A remainder with zero total weight is sampled uniformly.
    Each weighted draw is the one ``rng.choice(n, p=live / live.sum())``
    makes: a single uniform searched in the normalised cumulative sum.
    """
    n = len(ids)
    k = min(k, n)
    if k <= 0:
        return []
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError("weights must match ids")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    live = w.copy()
    avail = np.ones(n, dtype=bool)
    picks = []
    for _ in range(k):
        total = live.sum()
        if total > 0:
            cdf = np.cumsum(live / total)
            cdf /= cdf[-1]
            j = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            candidates = np.flatnonzero(avail)
            j = int(candidates[rng.integers(len(candidates))])
        picks.append(ids[j])
        avail[j] = False
        live[j] = 0.0
    return picks


class Breakdowns(Sequence[UtilityBreakdown]):
    """Utility decomposition of explored clients, one row each in client-id order.

    Backed by arrays; a :class:`UtilityBreakdown` is built only when a row is
    read. ``rows`` are the clients' rows in the view's table; ``pool`` holds
    the rows of every eligible client, explored or not, that the breakdown
    was computed over.
    """

    def __init__(self, ids: Sequence[str], pool: np.ndarray, rows: np.ndarray,
                 stat: np.ndarray, staleness: np.ndarray,
                 system_factor: np.ndarray, fairness: np.ndarray,
                 final: np.ndarray):
        for col in (pool, rows, stat, staleness, system_factor, fairness, final):
            col.setflags(write=False)
        self.ids = ids
        self.pool = pool
        self.rows = rows
        self.stat = stat
        self.staleness = staleness
        self.system_factor = system_factor
        self.fairness = fairness
        self.final = final

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return UtilityBreakdown(
            client_id=self.ids[self.rows[i]],
            stat_component=float(self.stat[i]),
            staleness_bonus=float(self.staleness[i]),
            system_factor=float(self.system_factor[i]),
            fairness_component=float(self.fairness[i]),
            final_utility=float(self.final[i]),
        )


class TrainingSelector:
    """Stateless selection pipeline over an immutable metastore view.

    All randomness derives from (seed, round), so a selection is reproducible
    regardless of caller threading.
    """

    def __init__(self, config: SelectorConfig, seed: int = 0,
                 metrics_sink: TextIO | None = None):
        self.config = config
        self.seed = seed
        self.metrics_sink = metrics_sink
        self._sink_header_written = False

    def compute_breakdowns(self, view: "StoreView", round_index: int,
                           candidates: Iterable[str] | None = None,
                           ) -> Breakdowns:
        """Utility decomposition for every eligible explored client."""
        cfg = self.config
        table = view.table
        pool = self._pool(view, candidates)
        rows = pool[table.explored[pool]]
        stat = table.stat_utility[rows]
        if not rows.size:
            empty = np.zeros(0)
            return Breakdowns(table.ids, pool, rows, empty, empty, empty,
                              empty, empty)

        last = table.last_round[rows]
        if round_index < 1:
            raise ValueError("round_index must be >= 1")
        if last.min() < 1:
            raise ValueError("last_round must be >= 1 (client never participated)")
        if last.max() > round_index:
            raise ValueError("last_round cannot exceed round_index")
        # math.log, not np.log, so the bonus matches staleness_bonus() exactly.
        stale = np.sqrt(0.1 * math.log(round_index) / last)
        combined = stat + stale

        # system_penalty(), with Python's float power on the stragglers so
        # the result matches the scalar form bit for bit.
        t_pref = view.preferred_duration
        duration = table.duration[rows]
        if not t_pref > 0 or duration.min() <= 0:
            raise ValueError("durations must be > 0")
        alpha = cfg.straggler_penalty
        with_sys = combined.copy()
        slow = np.flatnonzero(duration > t_pref)
        ratios = (t_pref / duration[slow]).tolist()
        with_sys[slow] = combined[slow] * np.array([r ** alpha for r in ratios],
                                                   dtype=np.float64)
        factor = np.ones_like(combined)
        positive = combined > 0
        factor[positive] = with_sys[positive] / combined[positive]

        f = cfg.fairness_weight
        fairness = np.zeros_like(combined)
        if f > 0:
            times = table.times_selected[rows]
            raw = (times.max() - times).astype(np.float64)
            max_raw, max_base = raw.max(), with_sys.max()
            scale = (max_base / max_raw) if max_raw > 0 and max_base > 0 else 1.0
            fairness = raw * scale

        final = (1.0 - f) * with_sys + f * fairness
        return Breakdowns(table.ids, pool, rows, stat, stale, factor, fairness,
                          final)

    def select_participants(self, view: "StoreView", k: int, round_index: int,
                            candidates: Iterable[str] | None = None,
                            ) -> tuple[list[str], Breakdowns]:
        """Pick up to ``k`` distinct participants for ``round_index``.

        Exploited picks come from the cutoff-admitted high-utility pool with
        probability proportional to utility; exploration picks come from
        unexplored clients weighted by speed hint. Short pools backfill from
        each other; as a last resort, below-cutoff explored clients fill in so
        the selection reaches min(k, feasible). Repeated candidates count once.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        cfg = self.config
        table = view.table
        breakdowns = self.compute_breakdowns(view, round_index, candidates)
        pool = breakdowns.pool
        if not pool.size:
            raise EmptySelectionError("no feasible clients to select from")
        explored = breakdowns.rows
        unexplored = pool[~table.explored[pool]]

        weights = breakdowns.final
        if cfg.noise_epsilon > 0:
            weights = perturb_utilities(self._rng(round_index, _STREAM_NOISE),
                                        weights, cfg.noise_epsilon)

        eps = exploration_fraction(cfg, round_index)
        n_exploit = int(math.floor((1.0 - eps) * k + 1e-9))
        n_explore = k - n_exploit

        # Positions into ``explored``, all in client-id order.
        admitted = self._admitted(weights, n_exploit)
        admitted_pos = np.flatnonzero(admitted)

        rng_exploit = self._rng(round_index, _STREAM_EXPLOIT)
        rng_explore = self._rng(round_index, _STREAM_EXPLORE)

        exploited = weighted_sample_without_replacement(
            rng_exploit, admitted_pos, weights[admitted_pos], n_exploit)

        explore_budget = n_explore + (n_exploit - len(exploited))
        explored_new = self._sample_by_speed(rng_explore, unexplored,
                                             table.speed_hint, explore_budget)

        selected = explored[exploited].tolist() + explored_new
        if len(selected) < k:
            leftover = admitted.copy()
            leftover[exploited] = False
            leftover_pos = np.flatnonzero(leftover)
            selected += explored[weighted_sample_without_replacement(
                rng_exploit, leftover_pos, weights[leftover_pos],
                k - len(selected))].tolist()
        below_pos = np.flatnonzero(~admitted)
        if len(selected) < k and below_pos.size:
            selected += explored[weighted_sample_without_replacement(
                rng_exploit, below_pos, weights[below_pos],
                k - len(selected))].tolist()

        if not selected:
            raise EmptySelectionError("no feasible clients to select from")
        self._emit(round_index, breakdowns)
        return [table.ids[row] for row in selected], breakdowns

    # -- internals ---------------------------------------------------------

    def _rng(self, round_index: int, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, round_index, stream])

    @staticmethod
    def _pool(view: "StoreView", candidates: Iterable[str] | None) -> np.ndarray:
        """Rows of the non-blacklisted candidates, once each, in client-id order."""
        table, order = view.table, view.order
        if candidates is None:
            return order[~table.blacklisted[order]]
        rows = np.fromiter(map(view.slots.get, candidates, repeat(-1)),
                           dtype=np.intp)
        eligible = np.zeros(len(table), dtype=bool)
        eligible[rows[rows >= 0]] = True
        eligible &= ~table.blacklisted
        return order[eligible[order]]

    def _admitted(self, weights: np.ndarray, n_exploit: int) -> np.ndarray:
        """Mask of clients above c% of the cutoff utility; the rest sit below.

        The cutoff utility is the ``n_exploit``-th largest weight.
        """
        n = weights.size
        if n_exploit <= 0 or not n:
            return np.zeros(n, dtype=bool)
        m = min(n_exploit, n)
        pivot = np.partition(weights, n - m)[n - m]
        threshold = (self.config.cutoff_confidence / 100.0) * pivot
        admitted = weights > threshold
        if not admitted.any():
            # Degenerate all-zero utilities: fall back to the whole pool.
            admitted[:] = True
        return admitted

    @staticmethod
    def _sample_by_speed(rng: np.random.Generator, pool: np.ndarray,
                         speed_hint: np.ndarray, k: int) -> list[int]:
        if k <= 0 or not pool.size:
            return []
        hints = speed_hint[pool]
        # NaN (no hint) fails the comparison, so any missing hint means uniform.
        w = hints if np.all(hints > 0) else np.ones(pool.size)
        return [int(row) for row in
                weighted_sample_without_replacement(rng, pool, w, k)]

    def _emit(self, round_index: int, breakdowns: Breakdowns) -> None:
        if self.metrics_sink is None:
            return
        if not self._sink_header_written:
            self.metrics_sink.write(
                "round\tclient_id\tstat\tstaleness\tsystem_factor"
                "\tfairness\tfinal\n")
            self._sink_header_written = True
        for b in breakdowns:
            self.metrics_sink.write(
                f"{round_index}\t{b.client_id}\t{b.stat_component:.6g}"
                f"\t{b.staleness_bonus:.6g}\t{b.system_factor:.6g}"
                f"\t{b.fairness_component:.6g}\t{b.final_utility:.6g}\n")
