"""Canonical desk-scale experiment setup and shared run helpers.

The canonical workload (1000 clients, 10 classes, heavy label and quantity
skew, order-of-magnitude system heterogeneity, K=50) is the common ground for
the directional comparisons: policies are run on identical worlds per seed so
differences come from selection alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulation import TrainingSession, TrainRecord, corrupt_clients
from .training import SelectorConfig
from .workload import PopulationSpec, generate_population

CANONICAL_K = 50
CANONICAL_ROUNDS = 300
# Blacklisting caps useful guided-family runs at N*threshold/K = 200 rounds
# on the canonical workload; converged-state comparisons (corruption,
# fairness) run on a 150-round horizon, clear of the pool-exhaustion tail.
STABLE_HORIZON = 150


def canonical_population_spec(seed: int, **overrides) -> PopulationSpec:
    base = dict(
        client_count=1000,
        class_count=10,
        feature_dim=32,
        label_concentration=0.3,
        sample_exponent=1.7,
        sample_min=20,
        sample_max=300,
        latency_log_mu=math.log(0.1),
        latency_log_sigma=1.0,
        bandwidth_log_mu=math.log(5e3),
        bandwidth_log_sigma=1.0,
        availability_min=0.85,
        availability_max=1.0,
        seed=seed,
        test_samples=3000,
        class_separation=3.0,
        client_shift=2.5,
        shift_latency_coupling=0.8,
    )
    base.update(overrides)
    return PopulationSpec(**base)


def canonical_selector_config(**overrides) -> SelectorConfig:
    base = dict(pacer_step=20.0)
    base.update(overrides)
    return SelectorConfig(**base)


@dataclass(frozen=True)
class RunSetup:
    """One (world, policy, seed) run description."""

    policy: str
    seed: int
    k: int = CANONICAL_K
    rounds: int = CANONICAL_ROUNDS
    corrupt_fraction: float | None = None


def run_fixed_rounds(setup: RunSetup, spec: PopulationSpec | None = None,
                     config: SelectorConfig | None = None) -> TrainRecord:
    """Run a policy for a fixed number of rounds and keep the full trace."""
    spec = spec or canonical_population_spec(setup.seed)
    config = config or canonical_selector_config()
    world = generate_population(spec)
    if setup.corrupt_fraction:
        corrupt_clients(world, fraction=setup.corrupt_fraction,
                        seed=setup.seed + 7919)
    session = TrainingSession(world, setup.policy, config, setup.k, setup.seed)
    return session.record(session.run_rounds(setup.rounds))


def time_to_accuracy(record: TrainRecord, target: float) -> tuple[int, float] | None:
    """(rounds, simulated seconds) until the trace first reaches the target."""
    clock = 0.0
    for r in record.rounds:
        clock += r.wall_time
        if r.accuracy >= target:
            return r.round_index, clock
    return None


def summarize(records: list[TrainRecord]) -> list[dict]:
    """Per-policy summary rows: mean and std of rounds and wall clock."""
    by_policy: dict[str, list[TrainRecord]] = {}
    for rec in records:
        by_policy.setdefault(rec.policy, []).append(rec)
    rows = []
    for policy in sorted(by_policy):
        recs = by_policy[policy]
        rounds = np.array([r.rounds_used for r in recs], dtype=float)
        clocks = np.array([r.wall_clock for r in recs], dtype=float)
        rows.append({
            "policy": policy,
            "runs": len(recs),
            "reached": sum(1 for r in recs if r.reached),
            "rounds_mean": float(rounds.mean()),
            "rounds_std": float(rounds.std()),
            "wall_clock_mean": float(clocks.mean()),
            "wall_clock_std": float(clocks.std()),
        })
    return rows


def write_summary_table(path: str, rows: list[dict]) -> None:
    columns = ("policy", "runs", "reached", "rounds_mean", "rounds_std",
               "wall_clock_mean", "wall_clock_std")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            cells = []
            for col in columns:
                value = row[col]
                cells.append(f"{value:.4f}" if isinstance(value, float) else str(value))
            fh.write("\t".join(cells) + "\n")
