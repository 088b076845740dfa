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
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import EmptySelectionError, require_finite

if TYPE_CHECKING:
    from .metastore import StoreView

UTILITY_MODES = ("loss_based", "gradient_norm_batches")

# Substream tags so the per-round RNG streams never collide.
_STREAM_NOISE = 0
_STREAM_EXPLOIT = 1
_STREAM_EXPLORE = 2

# Who may be selected: client ids, an integer array of rows of the view's
# table, or None for every client.
Candidates = Iterable[str] | np.ndarray | None


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
        require_finite(**vars(self))
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
        for name in ("pacer_window", "blacklist_threshold"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0.0 < self.cutoff_confidence <= 100.0:
            raise ValueError("cutoff_confidence must be in (0, 100]")
        if not 0.0 < self.clip_percentile <= 100.0:
            raise ValueError("clip_percentile must be in (0, 100]")
        if not 0.0 <= self.fairness_weight <= 1.0:
            raise ValueError("fairness_weight must be in [0, 1]")
        if self.utility_mode not in UTILITY_MODES:
            raise ValueError(f"utility_mode must be one of {UTILITY_MODES}")
        if self.noise_epsilon < 0.0:
            raise ValueError("noise_epsilon must be >= 0")


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

    The picks, in order, are equal in distribution to sequential draws with
    renormalization, where a remainder with zero total weight is drawn
    uniformly. They are made in one pass (Efraimidis and Spirakis, 2006):
    each id gets a key ``E / w`` with ``E ~ Exp(1)``, and the positive-weight
    ids with the smallest keys come first, in ascending key order. Zero-weight
    ids follow, if ``k`` asks for more, in ascending order of their ``E``.
    Callers pass ``ids`` in a deterministic order (client-id order) so the
    draws are reproducible.
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
    e = rng.standard_exponential(n)
    positive = w > 0
    picks = _smallest(np.flatnonzero(positive), e[positive] / w[positive], k)
    if len(picks) < k:
        zero = np.flatnonzero(~positive)
        picks = np.concatenate([picks, _smallest(zero, e[zero], k - len(picks))])
    return [ids[j] for j in picks.tolist()]


def _smallest(items: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """The (up to) ``k`` items with the smallest keys, in ascending key order."""
    if k < keys.size:
        part = np.argpartition(keys, k - 1)[:k]
        items, keys = items[part], keys[part]
    return items[np.argsort(keys, kind="stable")]


@dataclass(frozen=True, eq=False)
class Breakdowns:
    """Utility decomposition of explored clients, in client-id order.

    Read-only arrays with one entry per explored client; ``rows`` are those
    clients' rows in the view's table, so ``view.table.ids[row]`` names
    them. ``pool`` holds the rows of every eligible client, explored or not,
    that the breakdown was computed over.
    """

    pool: np.ndarray
    rows: np.ndarray
    stat: np.ndarray
    staleness: np.ndarray
    system_factor: np.ndarray
    fairness: np.ndarray
    final: np.ndarray

    def __post_init__(self):
        for col in vars(self).values():
            col.setflags(write=False)


class TrainingSelector:
    """Selection pipeline over an immutable metastore view.

    It holds no state that changes a selection: all randomness derives from
    (seed, round), so a selection is reproducible regardless of caller
    threading, and the only cache, of straggler factors, is keyed on the
    duration values it was computed from.
    """

    def __init__(self, config: SelectorConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        # (T, alpha, durations, factors) of the last _straggler_factors call.
        self._straggler_memo: tuple[float, float, np.ndarray, np.ndarray] | None = None

    def compute_breakdowns(self, view: "StoreView", round_index: int,
                           candidates: Candidates = None) -> Breakdowns:
        """Utility decomposition for every eligible explored client.

        ``candidates`` is read as :meth:`select_participants` reads it.
        """
        cfg = self.config
        table = view.table
        pool = self._pool(view, candidates)
        rows = pool[table.explored[pool]]
        stat = table.stat_utility[rows]
        if not rows.size:
            empty = np.zeros(0)
            return Breakdowns(pool, rows, empty, empty, empty, empty, empty)

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

        # system_penalty(): factors are 1.0 off the stragglers, so the
        # product equals the scalar form bit for bit on every row.
        t_pref = view.preferred_duration
        if not t_pref > 0 or table.duration[rows].min() <= 0:
            raise ValueError("durations must be > 0")
        with_sys = combined * self._straggler_factors(
            t_pref, cfg.straggler_penalty, table.duration)[rows]
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
        return Breakdowns(pool, rows, stat, stale, factor, fairness, final)

    def select_participants(self, view: "StoreView", k: int, round_index: int,
                            candidates: Candidates = None,
                            ) -> tuple[list[str], Breakdowns]:
        """Pick up to ``k`` distinct participants for ``round_index``.

        Exploited picks come from the cutoff-admitted high-utility pool with
        probability proportional to utility; exploration picks come from
        unexplored clients weighted by speed hint. Short pools backfill from
        each other; as a last resort, below-cutoff explored clients fill in so
        the selection reaches min(k, feasible).

        ``candidates`` limits the pool to some clients: client ids (repeats
        count once, unknown ids are skipped) or an integer array of rows of
        ``view.table``. ``None`` means every client. Blacklisted clients are
        never eligible.
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
        return [table.ids[row] for row in selected], breakdowns

    # -- internals ---------------------------------------------------------

    def _straggler_factors(self, t_pref: float, alpha: float,
                           durations: np.ndarray) -> np.ndarray:
        """``(T/d)**alpha`` for each row slower than ``T``, 1.0 elsewhere.

        Memoised on (T, alpha, durations): when T, alpha and the row count
        match the last call, only the rows whose duration changed are
        recomputed, with Python's float power so each factor matches
        :func:`system_penalty`.
        The memo is replaced in one assignment and its arrays are never
        written after, so concurrent callers at worst miss it.
        """
        memo = self._straggler_memo
        if (memo is not None and memo[:2] == (t_pref, alpha)
                and memo[2].shape == durations.shape):
            stale = np.flatnonzero(memo[2] != durations)
            factors = memo[3].copy() if stale.size else memo[3]
        else:
            stale = np.arange(durations.size)
            factors = np.empty(durations.size)
        if stale.size:
            slow = stale[durations[stale] > t_pref]
            factors[stale] = 1.0
            ratios = (t_pref / durations[slow]).tolist()
            factors[slow] = [r ** alpha for r in ratios]
            factors.setflags(write=False)
        self._straggler_memo = (t_pref, alpha, durations, factors)
        return factors

    def _rng(self, round_index: int, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, round_index, stream])

    @staticmethod
    def _pool(view: "StoreView", candidates: Candidates) -> np.ndarray:
        """Rows of the non-blacklisted candidates, once each, in client-id order."""
        table = view.table
        n = len(table)
        if candidates is None:
            return np.flatnonzero(~table.blacklisted)
        if isinstance(candidates, np.ndarray):
            if candidates.dtype.kind not in "iu":
                raise ValueError("candidates must be client ids or an integer "
                                 "array of rows")
            rows = candidates
            if rows.ndim != 1 or (rows.size and not 0 <= rows.min()
                                  <= rows.max() < n):
                raise ValueError("candidate rows must be rows of the view")
        else:
            rows = np.fromiter(map(view.slots.get, candidates, repeat(-1)),
                               dtype=np.intp)
            rows = rows[rows >= 0]
        eligible = np.zeros(n, dtype=bool)
        eligible[rows] = True
        return np.flatnonzero(eligible & ~table.blacklisted)

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
