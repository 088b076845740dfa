"""Trace-driven federated training engine.

Each round invites ceil(1.3*K) clients under a selection policy (one row of
``POLICY_TABLE``), ranks them by completion time, trains the first K to
complete with one batched call that runs each client's local epoch of
minibatch gradient descent, aggregates those K models into the global model,
and feeds utility/duration feedback back to the metadata store. The
simulated clock advances by the K-th completion time.

Every random draw derives from (seed, round, purpose[, client]), so runs are
reproducible across processes and thread counts, and a run resumed from a
checkpoint replays identically.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import TextIO

import numpy as np

from . import model, seeding
from .errors import CheckpointError, EmptySelectionError, FedselError
from .metastore import Checkpoint, MetaStore, RoundFeedback
from .training import (SelectorConfig, TrainingSelector,
                       aggregate_statistical_utility, gradient_norm_utility,
                       scheduled_pacer_tick)
from .workload import SimWorld

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Policy:
    """How a policy invites clients and which selector parts it keeps.

    ``invite`` is ``random`` (a uniform draw), ``fastest`` (lowest compute
    latency first) or ``selector`` (the training selector). The flags keep
    the pacer, the straggler penalty (``system_aware``) and speed-weighted
    exploration (``speed_hints``).
    """

    invite: str
    pacer: bool = False
    system_aware: bool = True
    speed_hints: bool = True


# Two baselines, then guided selection and its ablations, each of which drops
# one part of it.
POLICY_TABLE = MappingProxyType({
    "random": Policy("random"),
    "guided": Policy("selector", pacer=True),
    "guided_no_pacer": Policy("selector"),
    "guided_no_sys": Policy("selector", system_aware=False),
    "speed_only": Policy("fastest"),
    "stat_only": Policy("selector", system_aware=False, speed_hints=False),
})
POLICIES = tuple(POLICY_TABLE)

OVERCOMMIT = 1.3

# RNG substream tags (selector owns 0-2).
_STREAM_AVAILABILITY = 3
_STREAM_POLICY = 4
_STREAM_LOCAL = 5


@dataclass(frozen=True)
class RoundResult:
    round_index: int
    invited: tuple[str, ...]       # in completion order
    completers: tuple[str, ...]
    utilities: tuple[float, ...]   # per completer, aggregate loss-derived
    durations: tuple[float, ...]   # per completer, seconds
    wall_time: float
    accuracy: float
    preferred_duration: float


@dataclass(frozen=True)
class TrainRecord:
    """Outcome of a run.

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
    """One policy driving federated rounds over a world.

    Under a selector policy, ``metrics_sink`` receives each selection's
    per-client utility decomposition as a tab-separated table.
    """

    learning_rate = 0.05
    lr_decay_rounds = 60.0
    batch_size = 32

    def __init__(self, world: SimWorld, policy: str, config: SelectorConfig,
                 k: int, seed: int, metrics_sink: TextIO | None = None):
        if policy not in POLICY_TABLE:
            raise ValueError(f"policy must be one of {POLICIES}")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.world = world
        self.policy = policy
        self.rules = rules = POLICY_TABLE[policy]
        self.k = k
        self._want = math.ceil(OVERCOMMIT * k)
        self.seed = seed
        if not rules.system_aware:
            config = dataclasses.replace(config, straggler_penalty=0.0)
        self.config = config

        self.store = MetaStore(preferred_duration=config.pacer_step,
                               clip_percentile=config.clip_percentile,
                               blacklist_threshold=config.blacklist_threshold)
        hints = (1.0 / world.compute_latency).tolist()
        for cid, hint in zip(world.ids.tolist(), hints):
            self.store.register_client(cid, hint if rules.speed_hints else None)
        # The selector takes and gives world rows as store rows.
        self._check_rows(self.store.view().table.ids, FedselError)

        self.selector = TrainingSelector(config, seed=seed)
        self.metrics_sink = metrics_sink
        if metrics_sink is not None and rules.invite == "selector":
            metrics_sink.write("round\tclient_id\tstat\tstaleness"
                               "\tsystem_factor\tfairness\tfinal\n")
        self.weights = model.init_weights(world.class_count, world.feature_dim)
        self.wall_clock = 0.0
        self.selection_history: list[tuple[str, ...]] = []
        self._model_bytes = model.model_bytes(self.weights)

    # -- invitation ----------------------------------------------------------

    def _available_rows(self, round_index: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, round_index, _STREAM_AVAILABILITY])
        return np.flatnonzero(rng.random(len(self.world.ids))
                              < self.world.availability)

    def _available_clients(self, round_index: int) -> list[str]:
        return self.world.ids[self._available_rows(round_index)].tolist()

    def _invite(self, round_index: int, available: np.ndarray) -> np.ndarray:
        """Rows of the invited clients."""
        if not available.size:
            return available
        if self.rules.invite == "fastest":
            latency = self.world.compute_latency[available]
            return available[np.lexsort((available, latency))[:self._want]]
        if self.rules.invite == "selector":
            return self._select(round_index, available)
        rng = np.random.default_rng([self.seed, round_index, _STREAM_POLICY])
        picks = rng.choice(len(available), size=min(self._want, len(available)),
                           replace=False)
        return available[picks]

    def _select(self, round_index: int, available: np.ndarray) -> np.ndarray:
        view = self.store.view()
        if self.rules.pacer:
            new_t = scheduled_pacer_tick(
                view.utility_history[:round_index - 1], round_index,
                self.config.pacer_window, view.preferred_duration,
                self.config.pacer_step)
            if new_t != view.preferred_duration:
                self.store.set_preferred_duration(new_t)
                view = self.store.view()
        try:
            selected, downs = self.selector.select_participants(
                view, self._want, round_index, candidates=available)
        except EmptySelectionError:
            logger.warning("round %d: no feasible clients, idle round", round_index)
            return available[:0]
        if self.metrics_sink is not None:
            ids = view.table.ids
            for row, *values in zip(downs.rows.tolist(), downs.stat.tolist(),
                                    downs.staleness.tolist(),
                                    downs.system_factor.tolist(),
                                    downs.fairness.tolist(),
                                    downs.final.tolist()):
                cells = "".join(f"\t{v:.6g}" for v in values)
                self.metrics_sink.write(f"{round_index}\t{ids[row]}{cells}\n")
        return np.fromiter(map(view.slots.__getitem__, selected), np.intp,
                           len(selected))

    # -- round execution -----------------------------------------------------

    def run_round(self) -> RoundResult:
        round_index = self.store.advance_round()
        invited = self._invite(round_index, self._available_rows(round_index))
        if len(invited) < self._want:
            logger.debug("round %d: only %d clients invited", round_index,
                         len(invited))

        # Completion order depends on the system trace alone, never on the
        # training, so only the first K to finish are trained. Rows are in
        # id order, so the row breaks ties in duration by client id.
        world = self.world
        counts = world.sample_counts[invited]
        durations = (counts * world.compute_latency[invited]
                     + self._model_bytes / world.bandwidth[invited])
        order = np.lexsort((invited, durations))
        ranked = world.ids[invited[order]].tolist()
        completers = ranked[:self.k]
        first = order[:self.k]
        rows = invited[first]
        sizes, kept = counts[first].tolist(), durations[first].tolist()

        wall = 0.0
        utilities: list[float] = []
        if completers:
            # Row r's batch order is default_rng([seed, round, 5, r])'s
            # permutation, made for all K rows at once.
            orders = seeding.permutations(
                [self.seed, round_index, _STREAM_LOCAL], rows, sizes)
            lr = self.learning_rate / (1.0 + round_index / self.lr_decay_rounds)
            by_norms = self.config.utility_mode == "gradient_norm_batches"
            models, losses, batch_norms = model.local_epoch(
                self.weights, world.features, world.labels, sizes, lr,
                self.batch_size, world.offsets[rows], orders, norms=by_norms)
            if by_norms:
                utilities = [gradient_norm_utility(n) for n in batch_norms]
            else:
                utilities = _statistical_utilities(losses, sizes)
            self.weights = np.einsum("i,ijk->jk",
                                     np.full(len(models), 1.0 / len(models)),
                                     models)
            wall = kept[-1]
            self.store.update_with_feedback(
                RoundFeedback(client_id=cid, agg_stat_value=u,
                              wall_duration=d, round_index=round_index)
                for cid, u, d in zip(completers, utilities, kept))
        self.wall_clock += wall
        self.selection_history.append(tuple(completers))

        acc = model.accuracy(self.weights, self.world.test_features,
                             self.world.test_labels)
        return RoundResult(
            round_index=round_index,
            invited=tuple(ranked),
            completers=tuple(completers),
            utilities=tuple(utilities),
            durations=tuple(kept),
            wall_time=wall,
            accuracy=acc,
            preferred_duration=self.store.preferred_duration,
        )

    def run_rounds(self, count: int) -> list[RoundResult]:
        return [self.run_round() for _ in range(count)]

    def record(self, rounds: list[RoundResult], target: float = math.nan,
               reached: bool = False) -> TrainRecord:
        """The run record of ``rounds``, with the session's clock and history."""
        return TrainRecord(self.policy, self.seed, target, reached, len(rounds),
                           self.wall_clock, tuple(rounds),
                           self.store.view().utility_history)

    def train_to_target(self, target: float, max_rounds: int) -> TrainRecord:
        """Run rounds until the held-out accuracy reaches the target."""
        if not 0.0 <= target < 1.0:
            raise ValueError("target must be in [0, 1)")
        if max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")
        rounds: list[RoundResult] = []
        reached = model.accuracy(self.weights, self.world.test_features,
                                 self.world.test_labels) >= target
        while not reached and len(rounds) < max_rounds:
            rounds.append(self.run_round())
            reached = rounds[-1].accuracy >= target
        if not reached:
            logger.info("%s/seed=%d: target %.4f not reached in %d rounds",
                        self.policy, self.seed, target, max_rounds)
        return self.record(rounds, target, reached)

    # -- persistence ---------------------------------------------------------

    def snapshot(self) -> SessionCheckpoint:
        return SessionCheckpoint(store=self.store.snapshot(),
                                 weights=self.weights.copy(),
                                 wall_clock=self.wall_clock,
                                 selection_history=tuple(self.selection_history))

    def restore(self, checkpoint: SessionCheckpoint) -> None:
        self._check_rows(checkpoint.store.table.ids, CheckpointError)
        self.store.restore(checkpoint.store)
        self.weights = checkpoint.weights.copy()
        self.wall_clock = checkpoint.wall_clock
        self.selection_history = list(checkpoint.selection_history)

    def _check_rows(self, store_ids: tuple[str, ...],
                    error: type[FedselError]) -> None:
        """Raise ``error`` unless the store, whose rows are in client-id order,
        holds exactly the world's clients in the world's rows."""
        if tuple(sorted(store_ids)) != tuple(self.world.ids.tolist()):
            raise error("the store's clients must be the world's, row for row")

    @property
    def blacklisted_ids(self) -> set[str]:
        table = self.store.view().table
        return {table.ids[row] for row in np.flatnonzero(table.blacklisted)}


def _statistical_utilities(losses: np.ndarray, sizes: list[int]) -> list[float]:
    """Each client's statistical utility from its consecutive slice of the
    per-sample losses, via the (sum of squared losses, bin size) pair.

    The pairwise ``.sum()`` of a slice is the sum ``np.mean`` takes, so each
    value equals ``statistical_utility`` of the slice bit for bit.
    """
    if not (np.isfinite(losses).all() and (losses >= 0).all()):
        raise ValueError("sample losses must be finite and nonnegative")
    squares = losses * losses
    ends = np.cumsum(sizes).tolist()
    return [aggregate_statistical_utility(float(squares[end - n:end].sum()), n)
            for end, n in zip(ends, sizes)]


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
    n = len(world.ids)
    if fraction is not None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        bad = rng.choice(n, size=int(round(fraction * n)), replace=False)
        for row in bad:
            _, labels = world.shard(row)
            labels[:] = _flip_labels(rng, labels, c)
        world.corrupted[bad] = True
        return
    if not 0.0 <= flip_rate <= 1.0:
        raise ValueError("flip_rate must be in [0, 1]")
    if flip_rate == 0.0:
        return
    for row in range(n):
        _, labels = world.shard(row)
        n_flip = int(round(flip_rate * labels.size))
        if n_flip == 0:
            continue
        idx = rng.choice(labels.size, size=n_flip, replace=False)
        labels[idx] = _flip_labels(rng, labels[idx], c)
        world.corrupted[row] = True


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
            mean_utility = float(np.mean(r.utilities)) if r.utilities else 0.0
            fh.write(f"{r.round_index}\t{clock:.6f}\t{r.accuracy:.6f}"
                     f"\t{mean_utility:.6f}\t{r.preferred_duration:.6f}"
                     f"\t{len(r.completers)}\n")
