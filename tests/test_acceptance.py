"""Acceptance suite: directional and numerical exit criteria.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The canonical-workload experiments (1000 clients, 10 classes,
heavy skew, K=50, 5 seeds) are shared across criteria through session-scoped
fixtures; expect several minutes of wall time.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fedsel import model
from fedsel.errors import SizeGuardError
from fedsel.experiments import (CANONICAL_ROUNDS, STABLE_HORIZON,
                                RunSetup, canonical_population_spec,
                                canonical_selector_config, run_fixed_rounds,
                                time_to_accuracy)
from fedsel.simulation import TrainingSession, fairness_metrics
from fedsel.testing import (DeviationQuery, DistributionQuery,
                            estimate_participant_count, exact_milp,
                            greedy_cover, min_makespan_assignment,
                            validate_assignment, verify_bound_montecarlo)
from fedsel.training import (SelectorConfig, staleness_bonus,
                             statistical_utility, system_penalty)
from fedsel.workload import client_ids_for, generate_population
from loss_oracles import mean_loss

SEEDS = (1, 2, 3, 4, 5)
PACER_WINDOW = canonical_selector_config().pacer_window
PACER_STEP = canonical_selector_config().pacer_step


def announce(criterion: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} ({name}): {status} - {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


@pytest.fixture(scope="session")
def clean_runs():
    """300-round canonical runs, four policies, five seeds."""
    runs: dict[str, dict[int, object]] = {}
    timing: dict[str, float] = {}
    for policy in ("random", "guided", "guided_no_pacer", "stat_only"):
        start = time.perf_counter()
        runs[policy] = {
            seed: run_fixed_rounds(RunSetup(policy=policy, seed=seed,
                                            rounds=CANONICAL_ROUNDS))
            for seed in SEEDS}
        timing[policy] = time.perf_counter() - start
    runs["_timing"] = timing
    return runs


@pytest.fixture(scope="session")
def targets(clean_runs):
    """Per-seed target: random's best accuracy within 300 rounds."""
    return {seed: clean_runs["random"][seed].best_accuracy for seed in SEEDS}


def test_criterion_1_directional_time_to_accuracy(clean_runs, targets):
    rand_walls, guided_walls = [], []
    all_reached = True
    for seed in SEEDS:
        tta_rand = time_to_accuracy(clean_runs["random"][seed], targets[seed])
        tta_guided = time_to_accuracy(clean_runs["guided"][seed], targets[seed])
        if tta_guided is None:
            all_reached = False
            continue
        rand_walls.append(tta_rand[1])
        guided_walls.append(tta_guided[1])
    budget = clean_runs["_timing"]["random"] + clean_runs["_timing"]["guided"]
    ratio = float(np.mean(rand_walls) / np.mean(guided_walls)) if guided_walls else 0.0
    ok = all_reached and ratio >= 1.2 and budget < 600.0
    announce(1, "time-to-accuracy", ok,
             f"wall-clock speedup {ratio:.2f}x (need >= 1.2), "
             f"targets reached on {len(guided_walls)}/{len(SEEDS)} seeds, "
             f"runtime {budget:.0f}s (budget 600s)")


def test_criterion_2_ablation_ordering(clean_runs, targets):
    def mean_rounds(policy):
        vals = []
        for seed in SEEDS:
            tta = time_to_accuracy(clean_runs[policy][seed], targets[seed])
            assert tta is not None, f"{policy} seed {seed} never hit the target"
            vals.append(tta[0])
        return float(np.mean(vals))

    rounds = {p: mean_rounds(p) for p in ("guided", "guided_no_pacer",
                                          "stat_only")}
    wall = {p: float(np.mean([clean_runs[p][s].wall_clock for s in SEEDS]))
            for p in ("guided", "stat_only")}
    fewest = (rounds["stat_only"] <= rounds["guided"]
              and rounds["stat_only"] <= rounds["guided_no_pacer"])
    bounded = rounds["guided"] <= 2.0 * rounds["stat_only"]
    faster = wall["guided"] < wall["stat_only"]
    announce(2, "ablation ordering", fewest and bounded and faster,
             f"mean rounds-to-target stat_only={rounds['stat_only']:.1f}, "
             f"guided={rounds['guided']:.1f}, "
             f"no_pacer={rounds['guided_no_pacer']:.1f}; "
             f"300-round wall clock guided={wall['guided']:.0f}s "
             f"< stat_only={wall['stat_only']:.0f}s")


def test_criterion_3_pacer_behavior(clean_runs):
    checked = 0
    for seed in SEEDS:
        rec = clean_runs["guided"][seed]
        t_before = PACER_STEP
        for r in rec.rounds:
            t_now = r.preferred_duration
            assert t_now >= t_before, f"T decreased at round {r.round_index}"
            if t_now > t_before:
                idx = r.round_index
                assert idx > 2 * PACER_WINDOW, \
                    f"T increased before round {2 * PACER_WINDOW}"
                hist = rec.utility_history
                older = sum(hist[idx - 2 * PACER_WINDOW - 1:
                                 idx - PACER_WINDOW - 1])
                newer = sum(hist[idx - PACER_WINDOW - 1:idx - 1])
                assert older > newer, \
                    f"T increased at round {idx} without utility decline"
                checked += 1
            t_before = t_now
    announce(3, "pacer behavior", True,
             f"{checked} increases across {len(SEEDS)} runs, all "
             f"condition-gated, none before round {2 * PACER_WINDOW}, "
             f"T nondecreasing")


@pytest.fixture(scope="session")
def corrupted_runs():
    runs = {}
    for policy in ("random", "guided"):
        runs[policy] = {
            seed: run_fixed_rounds(RunSetup(policy=policy, seed=seed,
                                            rounds=STABLE_HORIZON,
                                            corrupt_fraction=0.10))
            for seed in SEEDS}
    return runs


def test_criterion_4_robustness_to_corruption(corrupted_runs):
    rand = float(np.mean([corrupted_runs["random"][s].final_accuracy
                          for s in SEEDS]))
    guided = float(np.mean([corrupted_runs["guided"][s].final_accuracy
                            for s in SEEDS]))
    announce(4, "corruption robustness", guided >= rand,
             f"mean final accuracy with 10% corrupted clients: "
             f"guided={guided:.4f} >= random={rand:.4f}")


def test_criterion_5_noise_tolerance(clean_runs, targets):
    noise_walls, rand_walls = [], []
    all_reached = True
    for seed in SEEDS:
        rec = run_fixed_rounds(RunSetup(policy="guided", seed=seed,
                                        rounds=STABLE_HORIZON),
                               config=canonical_selector_config(
                                   noise_epsilon=5.0))
        tta = time_to_accuracy(rec, targets[seed])
        if tta is None:
            all_reached = False
            continue
        noise_walls.append(tta[1])
        rand_walls.append(time_to_accuracy(clean_runs["random"][seed],
                                           targets[seed])[1])
    ok = all_reached and float(np.mean(noise_walls)) <= float(np.mean(rand_walls))
    announce(5, "noise tolerance", ok,
             f"noise_epsilon=5 guided mean tta "
             f"{np.mean(noise_walls) if noise_walls else math.nan:.0f}s <= "
             f"random {np.mean(rand_walls) if rand_walls else math.nan:.0f}s, "
             f"reached {len(noise_walls)}/{len(SEEDS)}")


def test_criterion_6_fairness_knob(clean_runs, targets):
    ids = client_ids_for(1000)
    threshold = canonical_selector_config().blacklist_threshold
    variances = {f: [] for f in (0.0, 0.5, 1.0)}
    f1_walls, rand_walls = [], []
    for seed in SEEDS:
        for f in (0.0, 0.5, 1.0):
            rec = run_fixed_rounds(RunSetup(policy="guided", seed=seed,
                                            rounds=STABLE_HORIZON),
                                   config=canonical_selector_config(
                                       fairness_weight=f))
            history = [r.completers for r in rec.rounds]
            counts: dict[str, int] = {}
            for completers in history:
                for cid in completers:
                    counts[cid] = counts.get(cid, 0) + 1
            blacklisted = {cid for cid, n in counts.items() if n >= threshold}
            variances[f].append(fairness_metrics(history, ids, blacklisted))
            if f == 1.0:
                tta = time_to_accuracy(rec, targets[seed])
                assert tta is not None, f"f=1 never hit the target on seed {seed}"
                f1_walls.append(tta[1])
                rand_walls.append(time_to_accuracy(clean_runs["random"][seed],
                                                   targets[seed])[1])
    means = {f: float(np.mean(v)) for f, v in variances.items()}
    monotone = means[0.0] > means[0.5] > means[1.0]
    wall_ok = float(np.mean(f1_walls)) <= float(np.mean(rand_walls))
    announce(6, "fairness knob", monotone and wall_ok,
             f"participation variance {means[0.0]:.2f} > {means[0.5]:.2f} > "
             f"{means[1.0]:.2f}; f=1 mean tta {np.mean(f1_walls):.0f}s <= "
             f"random {np.mean(rand_walls):.0f}s")


def test_criterion_7_deviation_bound():
    rng = np.random.default_rng(2024)
    trials = 1000
    worst = 0.0
    for _ in range(20):
        population = int(rng.integers(50, 2000))
        lo = float(rng.integers(0, 50))
        hi = lo + float(rng.integers(20, 500))
        eps = (hi - lo) * float(rng.uniform(0.02, 0.3))
        delta = float(rng.uniform(0.5, 0.99))
        query = DeviationQuery(tolerance=eps, population=population,
                               sample_count_range=(lo, hi), confidence=delta)
        n = estimate_participant_count(query)
        counts = rng.uniform(lo, hi, size=population)
        rate = verify_bound_montecarlo(query, counts, n, trials,
                                       seed=int(rng.integers(2 ** 31)))
        allowed = (1 - delta) + 3 * math.sqrt((1 - delta) * delta / trials)
        assert rate <= allowed, (
            f"violation rate {rate:.4f} > {allowed:.4f} for "
            f"N={population} eps={eps:.2f} delta={delta:.3f} n={n}")
        worst = max(worst, rate - (1 - delta))
    example = estimate_participant_count(DeviationQuery(
        tolerance=10, population=1000, sample_count_range=(0, 100),
        confidence=0.95))
    announce(7, "deviation bound", example == 131,
             f"20 random tuples within bound (worst excess {worst:+.4f}); "
             f"worked example n={example} (expect 131)")


def test_criterion_8_cover_solver_correctness():
    rng = np.random.default_rng(77)
    equal = 0
    enumerated = 0
    for index in range(200):
        n = int(rng.integers(2, 11))
        i = int(rng.integers(1, 4))
        caps = rng.integers(0, 10, size=(n, i))
        totals = caps.sum(axis=0)
        preference = (totals * rng.uniform(0.2, 0.9)).astype(np.int64)
        if preference.sum() == 0:
            preference[int(np.argmax(totals))] = int(min(totals.max(), 1))
        if preference.sum() == 0:
            continue
        query = DistributionQuery(
            client_ids=tuple(f"c{j:02d}" for j in range(n)),
            capacities=caps, preference=preference, budget=n,
            speeds=rng.uniform(1.0, 30.0, n),
            bandwidths=rng.uniform(1e5, 1e7, n),
            transfer_sizes=rng.uniform(1e4, 2e6, n))
        greedy = greedy_cover(query)
        optimal = exact_milp(query)
        validate_assignment(query, greedy)
        validate_assignment(query, optimal)
        assert optimal.objective_seconds <= greedy.objective_seconds + 1e-9
        if abs(optimal.objective_seconds - greedy.objective_seconds) <= 1e-9:
            equal += 1
        if n <= 8 and enumerated < 50:
            best = math.inf
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    sub = caps[list(subset)]
                    if np.any(sub.sum(axis=0) < preference):
                        continue
                    cand = min_makespan_assignment(query, sorted(subset))
                    best = min(best, cand.objective_seconds)
            assert optimal.objective_seconds == pytest.approx(best, rel=1e-9,
                                                              abs=1e-9)
            enumerated += 1
    announce(8, "cover solver correctness", equal >= 20,
             f"200 instances valid, exact <= greedy everywhere, "
             f"greedy == exact on {equal} (need >= 20), "
             f"{enumerated} checked against exhaustive enumeration")


def test_criterion_9_solver_scalability():
    rng = np.random.default_rng(9)
    n, categories = 10_000, 100
    caps = rng.integers(0, 40, size=(n, categories))
    preference = (caps.sum(axis=0) * 0.01).astype(np.int64)
    query = DistributionQuery(
        client_ids=tuple(f"c{j:05d}" for j in range(n)),
        capacities=caps, preference=preference, budget=n,
        speeds=rng.uniform(1.0, 30.0, n),
        bandwidths=rng.uniform(1e5, 1e7, n),
        transfer_sizes=np.full(n, 1e6))
    start = time.perf_counter()
    assignment = greedy_cover(query)
    elapsed = time.perf_counter() - start
    validate_assignment(query, assignment)
    with pytest.raises(SizeGuardError):
        exact_milp(query)
    announce(9, "solver scalability", elapsed < 60.0,
             f"greedy covered 10^4 clients x 100 categories in {elapsed:.1f}s "
             f"(< 60s); exact solver refused (size guard)")


def test_criterion_10_numerical_suite():
    rel = lambda a, b: abs(a - b) / abs(b)
    assert rel(statistical_utility([3, 4]), 7.07106781187) < 1e-4
    assert rel(statistical_utility([2, 2, 2]), 6.0) < 1e-4
    assert rel(system_penalty(6, 10, 20, 2), 1.5) < 1e-4
    assert rel(staleness_bonus(100, 10), 0.214596602629) < 1e-4
    assert estimate_participant_count(DeviationQuery(
        tolerance=10, population=1000, sample_count_range=(0, 100),
        confidence=0.95)) == 131

    # analytic gradient vs central finite differences, 1e-5 relative
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(30, 5))
    labels = rng.integers(0, 3, size=30)
    weights = rng.normal(scale=0.5, size=(3, 6))
    grad = model.mean_loss_gradient(weights, feats, labels)
    fd = np.zeros_like(weights)
    eps = 1e-6
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            up, down = weights.copy(), weights.copy()
            up[i, j] += eps
            down[i, j] -= eps
            fd[i, j] = (mean_loss(up, feats, labels)
                        - mean_loss(down, feats, labels)) / (2 * eps)
    grad_err = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12)
    assert grad_err < 1e-5

    # aggregation conservation within 1e-9 relative
    stack = rng.normal(size=(9, 4, 5))
    mean = np.einsum("i,ijk->jk", np.full(9, 1 / 9), stack)
    agg_err = np.abs(mean - stack.mean(axis=0)).max() / np.abs(stack).max()
    assert agg_err < 1e-9

    # determinism across checkpoint/restore and thread-count variation
    spec = canonical_population_spec(0, client_count=60, test_samples=300)
    cfg = SelectorConfig(pacer_step=5.0, pacer_window=3)

    def fresh():
        return TrainingSession(generate_population(spec), "guided", cfg, 5, 0)

    base = fresh()
    for _ in range(3):
        base.run_round()
    snapshot = base.snapshot()
    straight = [base.run_round().completers for _ in range(3)]
    resumed = fresh()
    resumed.restore(snapshot)
    replayed = [resumed.run_round().completers for _ in range(3)]
    assert straight == replayed

    def full_trace(_):
        session = fresh()
        return tuple(session.run_round().completers for _ in range(4))

    serial = full_trace(0)
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(full_trace, range(4)))
    assert all(trace == serial for trace in parallel)

    announce(10, "numerical suite", True,
             f"hand values at 1e-4, gradient FD err {grad_err:.2e} < 1e-5, "
             f"aggregation err {agg_err:.2e} < 1e-9, checkpoint/restore and "
             f"thread-count determinism hold")
