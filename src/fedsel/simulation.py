"""Trace-driven federated training engine.

Each round invites ceil(1.3*K) clients under a selection policy, runs one
local epoch of minibatch gradient descent per invited client, aggregates the
first K completions into the global model, and feeds utility/duration
feedback back to the metadata store. The simulated clock advances by the
K-th completion time.

Every random draw derives from (seed, round, purpose[, client]), so runs are
reproducible across processes and thread counts, and a run resumed from a
checkpoint replays identically.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from . import model
from .errors import EmptySelectionError
from .metastore import Checkpoint, MetaStore, RoundFeedback
from .training import (SelectorConfig, TrainingSelector, gradient_norm_utility,
                       scheduled_pacer_tick, statistical_utility)
from .workload import SimWorld

logger = logging.getLogger(__name__)

POLICIES = ("random", "guided", "guided_no_pacer", "guided_no_sys",
            "speed_only", "stat_only")

OVERCOMMIT = 1.3

# RNG substream tags (selector owns 0-2).
_STREAM_AVAILABILITY = 3
_STREAM_POLICY = 4
_STREAM_LOCAL = 5


@dataclass(frozen=True)
class RoundResult:
    round_index: int
    invited: tuple[str, ...]
    completers: tuple[str, ...]
    utilities: tuple[float, ...]   # per completer, aggregate loss-derived
    durations: tuple[float, ...]   # per completer, seconds
    wall_time: float
    accuracy: float
    preferred_duration: float

    @property
    def mean_utility(self) -> float:
        return float(np.mean(self.utilities)) if self.utilities else 0.0


@dataclass(frozen=True)
class TrainRecord:
    """Outcome of a time-to-accuracy run.

    ``utility_history[r-1]`` is the clipped statistical utility the store
    recorded for round r (what the pacer consumes).
    """

    policy: str
    seed: int
    target: float
    reached: bool
    rounds_used: int
    wall_clock: float
    rounds: tuple[RoundResult, ...]
    utility_history: tuple[float, ...] = ()

    @property
    def final_accuracy(self) -> float:
        return self.rounds[-1].accuracy if self.rounds else 0.0

    @property
    def best_accuracy(self) -> float:
        return max((r.accuracy for r in self.rounds), default=0.0)


@dataclass(frozen=True)
class SessionCheckpoint:
    """Everything needed to resume a session mid-run."""

    store: Checkpoint
    weights: np.ndarray
    wall_clock: float
    selection_history: tuple[tuple[str, ...], ...]


class TrainingSession:
    """One policy driving federated rounds over a world."""

    def __init__(self, world: SimWorld, policy: str, config: SelectorConfig,
                 k: int, seed: int, learning_rate: float = 0.05,
                 lr_decay_rounds: float = 60.0, batch_size: int = 32,
                 weight_by_samples: bool = False,
                 metrics_sink: TextIO | None = None):
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.world = world
        self.policy = policy
        self.k = k
        self.seed = seed
        self.learning_rate = learning_rate
        self.lr_decay_rounds = lr_decay_rounds
        self.batch_size = batch_size
        self.weight_by_samples = weight_by_samples

        if policy in ("guided_no_sys", "stat_only"):
            config = dataclasses.replace(config, straggler_penalty=0.0)
        self.config = config

        self.store = MetaStore(
            preferred_duration=config.pacer_step,
            clip_percentile=config.clip_percentile,
            blacklist_threshold=config.blacklist_threshold,
        )
        # stat_only is fully system-blind: no speed hints, so its exploration
        # is uniform instead of speed-weighted.
        give_hints = policy != "stat_only"
        self._ids = world.client_ids()
        self._index = {cid: i for i, cid in enumerate(self._ids)}
        for cid in self._ids:
            hint = 1.0 / world.clients[cid].compute_latency if give_hints else None
            self.store.register_client(cid, speed_hint=hint)

        self.selector = TrainingSelector(config, seed=seed,
                                         metrics_sink=metrics_sink)
        self.weights = model.init_weights(world.class_count, world.feature_dim)
        self.wall_clock = 0.0
        self.selection_history: list[tuple[str, ...]] = []
        self._model_bytes = model.model_bytes(self.weights)

    # -- policy dispatch -----------------------------------------------------

    def _uses_pacer(self) -> bool:
        return self.policy == "guided"

    def _available_clients(self, round_index: int) -> list[str]:
        rng = np.random.default_rng([self.seed, round_index, _STREAM_AVAILABILITY])
        draws = rng.random(len(self._ids))
        return [cid for cid, u in zip(self._ids, draws)
                if u < self.world.clients[cid].availability]

    def _invite(self, round_index: int, available: list[str]) -> list[str]:
        want = math.ceil(OVERCOMMIT * self.k)
        if not available:
            return []
        if self.policy == "random":
            rng = np.random.default_rng([self.seed, round_index, _STREAM_POLICY])
            take = min(want, len(available))
            picks = rng.choice(len(available), size=take, replace=False)
            return [available[i] for i in picks]
        if self.policy == "speed_only":
            ranked = sorted(available,
                            key=lambda c: (self.world.clients[c].compute_latency, c))
            return ranked[:want]
        view = self.store.view()
        if self._uses_pacer():
            new_t = scheduled_pacer_tick(
                view.utility_history[:round_index - 1], round_index,
                self.config.pacer_window, view.preferred_duration,
                self.config.pacer_step)
            if new_t != view.preferred_duration:
                self.store.set_preferred_duration(new_t)
                view = self.store.view()
        try:
            selected, _ = self.selector.select_participants(
                view, want, round_index, candidates=available)
        except EmptySelectionError:
            logger.warning("round %d: no feasible clients, idle round", round_index)
            return []
        return selected

    # -- round execution -----------------------------------------------------

    def run_round(self) -> RoundResult:
        round_index = self.store.advance_round()
        available = self._available_clients(round_index)
        invited = self._invite(round_index, available)
        if len(invited) < math.ceil(OVERCOMMIT * self.k):
            logger.debug("round %d: only %d clients invited", round_index,
                         len(invited))

        lr = self.learning_rate / (1.0 + round_index / self.lr_decay_rounds)
        outcomes = []
        for cid in invited:
            client = self.world.clients[cid]
            rng = np.random.default_rng(
                [self.seed, round_index, _STREAM_LOCAL, self._index[cid]])
            new_w, losses, batch_norms = model.local_epoch(
                self.weights, client.features, client.labels, lr,
                self.batch_size, rng)
            duration = (client.sample_count * client.compute_latency
                        + self._model_bytes / client.bandwidth)
            if self.config.utility_mode == "gradient_norm_batches":
                utility = gradient_norm_utility(batch_norms)
            else:
                utility = statistical_utility(losses)
            outcomes.append((duration, cid, utility, new_w, client.sample_count))

        outcomes.sort(key=lambda o: (o[0], o[1]))
        completers = outcomes[:self.k]
        if completers:
            if self.weight_by_samples:
                weights = np.array([o[4] for o in completers], dtype=float)
                weights /= weights.sum()
            else:
                weights = np.full(len(completers), 1.0 / len(completers))
            self.weights = np.einsum("i,ijk->jk", weights,
                                     np.stack([o[3] for o in completers]))
            wall = completers[-1][0]
            feedback = [RoundFeedback(client_id=o[1], agg_stat_value=o[2],
                                      wall_duration=o[0], round_index=round_index)
                        for o in completers]
            self.store.update_with_feedback(feedback)
        else:
            wall = 0.0
        self.wall_clock += wall
        self.selection_history.append(tuple(o[1] for o in completers))

        acc = model.accuracy(self.weights, self.world.test_features,
                             self.world.test_labels)
        return RoundResult(
            round_index=round_index,
            invited=tuple(o[1] for o in outcomes),
            completers=tuple(o[1] for o in completers),
            utilities=tuple(o[2] for o in completers),
            durations=tuple(o[0] for o in completers),
            wall_time=wall,
            accuracy=acc,
            preferred_duration=self.store.preferred_duration,
        )

    def train_to_target(self, target: float, max_rounds: int) -> TrainRecord:
        """Run rounds until the held-out accuracy reaches the target."""
        if not 0.0 <= target < 1.0:
            raise ValueError("target must be in [0, 1)")
        if max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")
        rounds: list[RoundResult] = []
        initial = model.accuracy(self.weights, self.world.test_features,
                                 self.world.test_labels)
        if initial >= target:
            return TrainRecord(self.policy, self.seed, target, True, 0,
                               self.wall_clock, tuple())
        reached = False
        for _ in range(max_rounds):
            result = self.run_round()
            rounds.append(result)
            if result.accuracy >= target:
                reached = True
                break
        if not reached:
            logger.info("%s/seed=%d: target %.4f not reached in %d rounds",
                        self.policy, self.seed, target, max_rounds)
        return TrainRecord(self.policy, self.seed, target, reached,
                           len(rounds), self.wall_clock, tuple(rounds),
                           self.store.view().utility_history)

    def run_rounds(self, count: int) -> list[RoundResult]:
        return [self.run_round() for _ in range(count)]

    # -- persistence ---------------------------------------------------------

    def snapshot(self) -> SessionCheckpoint:
        return SessionCheckpoint(store=self.store.snapshot(),
                                 weights=self.weights.copy(),
                                 wall_clock=self.wall_clock,
                                 selection_history=tuple(self.selection_history))

    def restore(self, checkpoint: SessionCheckpoint) -> None:
        self.store.restore(checkpoint.store)
        self.weights = checkpoint.weights.copy()
        self.wall_clock = checkpoint.wall_clock
        self.selection_history = list(checkpoint.selection_history)

    @property
    def blacklisted_ids(self) -> set[str]:
        table = self.store.view().table
        return {table.ids[row] for row in np.flatnonzero(table.blacklisted)}


def corrupt_clients(world: SimWorld, fraction: float | None = None,
                    flip_rate: float | None = None, seed: int = 0) -> None:
    """Flip ground-truth labels to other categories.

    Mode A (``fraction``): flips every label on a random fraction of clients.
    Mode B (``flip_rate``): flips a uniform subset of every client's labels.
    """
    if (fraction is None) == (flip_rate is None):
        raise ValueError("give exactly one of fraction or flip_rate")
    rng = np.random.default_rng(seed)
    c = world.class_count
    ids = world.client_ids()
    if fraction is not None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        n_bad = int(round(fraction * len(ids)))
        bad = rng.choice(len(ids), size=n_bad, replace=False)
        for i in bad:
            client = world.clients[ids[i]]
            client.labels = _flip_labels(rng, client.labels, c)
            client.corrupted = True
        return
    if not 0.0 <= flip_rate <= 1.0:
        raise ValueError("flip_rate must be in [0, 1]")
    if flip_rate == 0.0:
        return
    for cid in ids:
        client = world.clients[cid]
        n_flip = int(round(flip_rate * client.sample_count))
        if n_flip == 0:
            continue
        idx = rng.choice(client.sample_count, size=n_flip, replace=False)
        client.labels = client.labels.copy()
        client.labels[idx] = _flip_labels(rng, client.labels[idx], c)
        client.corrupted = True


def _flip_labels(rng: np.random.Generator, labels: np.ndarray,
                 class_count: int) -> np.ndarray:
    offsets = rng.integers(1, class_count, size=labels.size)
    return (labels + offsets) % class_count


def fairness_metrics(selection_history: list[tuple[str, ...]],
                     client_ids: list[str],
                     blacklisted: set[str] | frozenset[str] = frozenset(),
                     ) -> float:
    """Population variance of participation counts over non-blacklisted clients."""
    if not selection_history:
        raise ValueError("need at least one completed round")
    counts = {cid: 0 for cid in client_ids}
    for round_ids in selection_history:
        for cid in round_ids:
            counts[cid] += 1
    kept = [n for cid, n in counts.items() if cid not in blacklisted]
    if not kept:
        return float("nan")
    return float(np.var(kept))


def write_metrics_table(path: str, record: TrainRecord) -> None:
    """One row per round: the plot-ready run trace."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round\twall_clock_s\ttest_accuracy\tmean_utility"
                 "\tpreferred_duration\tparticipants\n")
        clock = 0.0
        for r in record.rounds:
            clock += r.wall_time
            fh.write(f"{r.round_index}\t{clock:.6f}\t{r.accuracy:.6f}"
                     f"\t{r.mean_utility:.6f}\t{r.preferred_duration:.6f}"
                     f"\t{len(r.completers)}\n")
