"""Deviation estimator, Monte-Carlo oracle, cover solvers and file formats."""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from fedsel import testing

from fedsel.errors import (BudgetExceededError, InfeasibleQueryError,
                           SizeGuardError, TableParseError)
from fedsel.testing import (Assignment, DeviationQuery, DistributionQuery,
                            min_makespan_assignment,
                            compile_representative_preference,
                            estimate_participant_count, exact_milp,
                            greedy_cover, load_distribution_query,
                            read_capacity_file, read_client_table,
                            validate_assignment, verify_bound_montecarlo,
                            write_assignment_file)

REL = 1e-4


def dq(tolerance=10.0, population=1000, rng=(0.0, 100.0, ), confidence=0.95):
    return DeviationQuery(tolerance=tolerance, population=population,
                          sample_count_range=(rng[0], rng[1]),
                          confidence=confidence)


# -- participant-count estimator -------------------------------------------------

def test_estimator_worked_example():
    # (1001)/(1 + 2000*0.01/2.9957...) = 130.40 -> 131
    assert estimate_participant_count(dq()) == 131


def test_estimator_tiny_confidence_clamps_to_one():
    q = dq(confidence=1e-12)
    assert estimate_participant_count(q) == 1


def test_estimator_halving_tolerance_needs_more():
    n_wide = estimate_participant_count(dq(tolerance=10.0))
    n_tight = estimate_participant_count(dq(tolerance=5.0))
    assert n_tight > n_wide
    assert n_tight == 376  # hand-evaluated: 375.04 -> ceil


def test_estimator_tolerance_beyond_range_still_at_least_one():
    q = dq(tolerance=1e6, confidence=0.05)
    assert estimate_participant_count(q) == 1


def test_estimator_rejects_degenerate_confidence():
    with pytest.raises(ValueError):
        dq(confidence=1.0)
    with pytest.raises(ValueError):
        dq(confidence=0.0)


def test_estimator_never_exceeds_population():
    q = dq(tolerance=1e-9, confidence=0.999999)
    assert estimate_participant_count(q) == 1000


@given(st.floats(min_value=0.5, max_value=50),
       st.floats(min_value=0.01, max_value=0.99),
       st.integers(min_value=10, max_value=100_000))
def test_estimator_monotonicities(tolerance, confidence, population):
    base = dq(tolerance=tolerance, population=population, confidence=confidence)
    n = estimate_participant_count(base)
    assert 1 <= n <= population
    looser = estimate_participant_count(dq(tolerance=tolerance * 2,
                                           population=population,
                                           confidence=confidence))
    assert looser <= n
    surer = estimate_participant_count(dq(tolerance=tolerance,
                                          population=population,
                                          confidence=min(0.999, confidence + 0.005)))
    assert surer >= n
    wider = estimate_participant_count(dq(tolerance=tolerance,
                                          population=population,
                                          rng=(0.0, 200.0),
                                          confidence=confidence))
    assert wider >= n


# -- Monte-Carlo oracle ------------------------------------------------------------

def test_montecarlo_full_population_never_deviates():
    counts = np.linspace(0, 100, 50)
    q = dq(population=50)
    assert verify_bound_montecarlo(q, counts, n=50, trials=100) == 0.0


def test_montecarlo_zero_tolerance_always_deviates():
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 101, size=200).astype(float)
    q = DeviationQuery(tolerance=1e-12, population=200,
                       sample_count_range=(0, 100))
    rate = verify_bound_montecarlo(q, counts, n=20, trials=200)
    assert rate > 0.95


def test_montecarlo_estimated_count_meets_confidence():
    rng = np.random.default_rng(7)
    counts = rng.integers(0, 101, size=1000).astype(float)
    q = dq()
    n = estimate_participant_count(q)
    rate = verify_bound_montecarlo(q, counts, n, trials=1000, seed=3)
    assert rate <= 1 - q.confidence


def test_montecarlo_rejects_oversized_sample():
    with pytest.raises(ValueError):
        verify_bound_montecarlo(dq(population=10),
                                np.zeros(10), n=11, trials=10)


def test_montecarlo_rejects_out_of_range_population():
    with pytest.raises(ValueError):
        verify_bound_montecarlo(dq(), np.full(1000, 150.0), n=10, trials=10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_montecarlo_rejects_non_finite_counts(bad):
    counts = np.linspace(0, 100, 50)
    counts[7] = bad
    with pytest.raises(ValueError, match="finite"):
        verify_bound_montecarlo(dq(population=50), counts, n=10, trials=10)


@pytest.mark.parametrize("name", ["n", "trials"])
@pytest.mark.parametrize("bad", [True, 10.0, "10", None])
def test_montecarlo_rejects_non_integer_sizes(name, bad):
    args = {"n": 10, "trials": 10, name: bad}
    with pytest.raises(ValueError, match=name):
        verify_bound_montecarlo(dq(population=50), np.linspace(0, 100, 50),
                                **args)


def test_montecarlo_accepts_numpy_integer_sizes():
    rate = verify_bound_montecarlo(dq(population=50), np.linspace(0, 100, 50),
                                   n=np.int64(10), trials=np.int32(10))
    assert 0.0 <= rate <= 1.0


@pytest.mark.parametrize("field", [
    {"tolerance": math.inf},
    {"rng": (0.0, math.inf)},
    {"rng": (-math.inf, 100.0)},
    {"tolerance": math.nan},
])
def test_deviation_query_rejects_non_finite(field):
    with pytest.raises(ValueError):
        dq(**field)


@pytest.mark.parametrize("bad", [10.5, 10.0, True, "10", None])
def test_deviation_query_rejects_non_integer_population(bad):
    with pytest.raises(ValueError, match="population"):
        dq(population=bad)


def test_deviation_query_accepts_numpy_integer_population():
    assert estimate_participant_count(dq(population=np.int64(1000))) == 131


def montecarlo_reference(query, counts, n, trials, seed=0):
    """Violation rate from one index sample per trial, the direct reading."""
    counts = np.asarray(counts, dtype=float)
    rng = np.random.default_rng(seed)
    pop_mean = counts.mean()
    violations = 0
    for _ in range(trials):
        sample = counts[rng.choice(counts.size, size=n, replace=False)]
        if abs(sample.mean() - pop_mean) >= query.tolerance:
            violations += 1
    return violations / trials


def exact_violation_probability(counts, n, tolerance):
    """Share of all n-subsets whose mean deviates by at least ``tolerance``."""
    counts = np.asarray(counts, dtype=float)
    deviations = np.array([abs(counts[list(s)].mean() - counts.mean())
                           for s in itertools.combinations(range(counts.size), n)])
    # No subset may sit on the boundary, where rounding would decide it.
    assert np.min(np.abs(deviations - tolerance)) > 1e-6
    return float(np.mean(deviations >= tolerance))


SMALL_POPULATIONS = {
    "duplicate_integers": ([3, 3, 3, 7, 7, 10, 10, 10, 10, 15, 20, 20], 2.5),
    "distinct_floats": (np.random.default_rng(11).uniform(0, 20, 12).round(3).tolist(),
                        2.0),
}


@pytest.mark.parametrize("sampler", [verify_bound_montecarlo, montecarlo_reference],
                         ids=["counts", "reference"])
@pytest.mark.parametrize("population", sorted(SMALL_POPULATIONS))
def test_montecarlo_rate_matches_enumeration(sampler, population):
    counts, tolerance = SMALL_POPULATIONS[population]
    n, trials = 5, 40_000
    exact = exact_violation_probability(counts, n, tolerance)
    assert 0.1 < exact < 0.9
    q = DeviationQuery(tolerance=tolerance, population=len(counts),
                       sample_count_range=(0.0, 20.0))
    rate = sampler(q, counts, n, trials, seed=4)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(rate - exact) <= 4 * sigma, (rate, exact, sigma)


def exact_violation_from_multiplicities(values, multiplicity, n, tolerance):
    """Violation probability summed over every held-count vector, each
    weighted by its multivariate hypergeometric probability."""
    population = sum(multiplicity)
    mean = np.dot(values, multiplicity) / population
    total = 0.0
    for head in itertools.product(*(range(min(m, n) + 1)
                                    for m in multiplicity[:-1])):
        held = (*head, n - sum(head))
        if not 0 <= held[-1] <= multiplicity[-1]:
            continue
        deviation = abs(np.dot(values, held) / n - mean)
        assert abs(deviation - tolerance) > 1e-6  # off the rounding boundary
        if deviation >= tolerance:
            total += math.prod(math.comb(m, h) for m, h in zip(multiplicity, held))
    return total / math.comb(population, n)


def test_montecarlo_few_values_draws_by_marginals():
    # Three values in a population of 100 and a sample of 40: 8 * 3 is
    # below min(40, 60), so the draw goes value by value ("marginals").
    values, multiplicity = [0.0, 5.0, 10.0], [30, 50, 20]
    n, trials, tolerance, seed = 40, 20_000, 0.56, 3
    counts = np.repeat(values, multiplicity)
    np.random.default_rng(0).shuffle(counts)
    exact = exact_violation_from_multiplicities(values, multiplicity, n,
                                                tolerance)
    assert 0.1 < exact < 0.9
    q = DeviationQuery(tolerance=tolerance, population=100,
                       sample_count_range=(0.0, 10.0))
    rate = verify_bound_montecarlo(q, counts, n, trials, seed=seed)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(rate - exact) <= 4 * sigma, (rate, exact, sigma)
    # All trials fit one block, so this is the sampler's own draw.
    held = np.random.default_rng(seed).multivariate_hypergeometric(
        multiplicity, n, size=trials, method="marginals")
    deviation = np.abs(held @ np.array(values) / n - counts.mean())
    assert rate == np.count_nonzero(deviation >= tolerance) / trials


def test_montecarlo_whole_population_is_exact():
    # Tolerance far below the rounding of any mean, so only the exact
    # identity of sample and population can report no violation.
    counts = np.random.default_rng(5).uniform(0, 100, 300)
    q = DeviationQuery(tolerance=1e-300, population=300,
                       sample_count_range=(0.0, 100.0))
    assert verify_bound_montecarlo(q, counts, n=300, trials=50) == 0.0
    assert verify_bound_montecarlo(q, counts, n=299, trials=50) == 1.0


def spy_refinement(monkeypatch):
    """Record how many trials each call of the within-band draw refines."""
    refined = []
    draw = testing._draw_within_bands

    def spy(rng, totals, *rest):
        refined.append(len(totals))
        return draw(rng, totals, *rest)

    monkeypatch.setattr(testing, "_draw_within_bands", spy)
    return refined


def test_montecarlo_bands_match_enumeration(monkeypatch):
    # Counts {0, 2} and {44, 46} fall in two cells of width 3.11, and at
    # n = 40 of 80 the two band totals cost a fraction of the direct draw,
    # so each trial draws its band totals first. Its bounds are 2 apart, so
    # many trials straddle the tolerance and draw their counts in the bands.
    values, multiplicity = [0.0, 2.0, 44.0, 46.0], [20, 20, 20, 20]
    n, trials, tolerance, seed = 40, 20_000, 3.11, 6
    counts = np.repeat(values, multiplicity)
    exact = exact_violation_from_multiplicities(values, multiplicity, n,
                                                tolerance)
    assert 0.1 < exact < 0.9
    refined = spy_refinement(monkeypatch)
    q = DeviationQuery(tolerance=tolerance, population=80,
                       sample_count_range=(0.0, 46.0))
    rate = verify_bound_montecarlo(q, counts, n, trials, seed=seed)
    assert 0 < sum(refined) < trials
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(rate - exact) <= 4 * sigma, (rate, exact, sigma)


def test_within_band_draw_is_multivariate_hypergeometric():
    # Band totals and then the counts within each band, against the
    # probability of every held-count vector: a chi-square goodness of fit.
    values = np.array([1.0, 2.0, 3.0, 10.0, 11.0])
    multiplicity = np.array([3, 2, 4, 3, 2])
    n, trials = 6, 40_000
    starts = testing._bands(values, 3.0)
    assert starts.tolist() == [0, 3]
    rng = np.random.default_rng(8)
    totals = rng.multivariate_hypergeometric(
        np.add.reduceat(multiplicity, starts), n, size=trials)
    held = testing._draw_within_bands(rng, totals, multiplicity, starts)
    seen = {}
    for row in map(tuple, held):
        seen[row] = seen.get(row, 0) + 1
    observed, expected = [], []
    for row in itertools.product(*(range(m + 1) for m in multiplicity)):
        if sum(row) == n:
            observed.append(seen.pop(row, 0))
            expected.append(trials * math.prod(map(math.comb, multiplicity, row))
                            / math.comb(int(multiplicity.sum()), n))
    assert not seen  # every draw is a possible sample
    statistic, p = stats.chisquare(observed, expected)
    assert p > 1e-4, (statistic, p)


@given(st.data())
def test_band_settlement_agrees_with_sample_mean(data):
    values = np.array(sorted(data.draw(st.sets(st.integers(0, 60), min_size=1,
                                               max_size=8))), dtype=float)
    values *= data.draw(st.sampled_from([1.0, 0.1, 1 / 3]))
    if data.draw(st.booleans()):  # values an ulp apart share a band
        values = np.unique(np.r_[values, np.nextafter(values, np.inf)])
    multiplicity = data.draw(st.lists(st.integers(1, 6), min_size=values.size,
                                      max_size=values.size))
    counts = np.repeat(values, multiplicity)
    n = data.draw(st.integers(1, counts.size))
    # Any sample of n clients, as its held counts per value.
    picked = data.draw(st.permutations(range(counts.size)))[:n]
    held = np.bincount(np.searchsorted(values, counts[picked]),
                       minlength=values.size)
    pop_mean = counts.mean()
    deviation = np.abs(held[None] @ values / n - pop_mean)[0]
    # Tolerances on the rounding boundary of this sample, and anywhere.
    tolerance = data.draw(st.one_of(
        st.sampled_from([deviation, np.nextafter(deviation, np.inf),
                         np.nextafter(deviation, 0)]).filter(lambda t: t > 0),
        st.floats(1e-3, 100)))
    starts = testing._bands(values, tolerance)
    totals = np.add.reduceat(held, starts)[None]
    over, within = testing._settle(totals, values, starts, n, pop_mean,
                                   tolerance)
    if over[0]:
        assert deviation >= tolerance
    if within[0]:
        assert deviation < tolerance


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", ["n_one", "n_all_but_one", "one_value",
                                  "tiny_tolerance", "tolerance_over_range"])
def test_montecarlo_edge_cases_run_clean(monkeypatch, case):
    # At n = 2000 of 5000 the draw takes band totals first (n = 1 and
    # N - 1, one value and the tiny tolerance draw directly).
    population, n, tolerance = 5000, 2000, 5.0
    counts = np.random.default_rng(0).integers(20, 301, population).astype(float)
    if case == "n_one":
        n = 1
    elif case == "n_all_but_one":
        n = population - 1
    elif case == "one_value":
        counts = np.full(population, 7.0)
    elif case == "tiny_tolerance":
        tolerance = 1e-300
        assert testing._bands(np.unique(counts), tolerance).size == 281
        assert testing._bands(np.array([0.0, 1.0, 1e10]), tolerance).size == 3
    elif case == "tolerance_over_range":
        tolerance = 500.0
        assert testing._bands(np.unique(counts), tolerance).tolist() == [0]
    refined = spy_refinement(monkeypatch)
    q = DeviationQuery(tolerance=tolerance, population=population,
                       sample_count_range=(0.0, 300.0))
    rate = verify_bound_montecarlo(q, counts, n, trials=10 if n == 1 else 300,
                                   seed=2)
    assert 0.0 <= rate <= 1.0
    if case == "tolerance_over_range":
        # One band: every trial is within the tolerance by its bounds.
        assert rate == 0.0 and refined and sum(refined) == 0
    elif case == "one_value":
        assert rate == 0.0
    elif case == "tiny_tolerance":
        assert rate == 1.0 and not refined


# -- distribution queries ------------------------------------------------------------

def simple_query(caps, preference, budget=None, speeds=None, bandwidths=None,
                 transfers=None) -> DistributionQuery:
    caps = np.asarray(caps)
    n = caps.shape[0]
    ids = tuple(f"c{i}" for i in range(n))
    return DistributionQuery(
        client_ids=ids,
        capacities=caps,
        preference=np.asarray(preference),
        budget=budget if budget is not None else n,
        speeds=np.asarray(speeds if speeds is not None else [10.0] * n),
        bandwidths=np.asarray(bandwidths if bandwidths is not None else [1e6] * n),
        transfer_sizes=np.asarray(transfers if transfers is not None else [1e6] * n),
    )


def duration_of(samples: Mapping[str, Sequence[int]],
                speeds: Mapping[str, float],
                bandwidths: Mapping[str, float],
                transfer_sizes: Mapping[str, float]) -> float:
    """Makespan oracle: the slowest participant's compute plus transfer time."""
    worst = 0.0
    for cid, counts in samples.items():
        total = int(sum(counts))
        if total <= 0:
            continue
        speed = speeds[cid]
        bandwidth = bandwidths[cid]
        if speed <= 0 or bandwidth <= 0:
            raise ValueError(f"client {cid!r} needs positive speed and bandwidth")
        worst = max(worst, total / speed + transfer_sizes[cid] / bandwidth)
    return worst


def test_duration_of_hand_example():
    assert duration_of({"x": [20]}, {"x": 10.0}, {"x": 1e6}, {"x": 1e6}) == 3.0


def test_duration_of_takes_max():
    samples = {"a": [30], "b": [10]}
    speeds = {"a": 10.0, "b": 10.0}
    bw = {"a": 1e6, "b": 1e6}
    tr = {"a": 0.0, "b": 1e6}
    assert duration_of(samples, speeds, bw, tr) == 3.0


def test_duration_of_empty_assignment():
    assert duration_of({}, {}, {}, {}) == 0.0


def test_duration_of_zero_speed_errors():
    with pytest.raises(ValueError):
        duration_of({"a": [5]}, {"a": 0.0}, {"a": 1e6}, {"a": 1.0})


def test_exact_cover_two_disjoint_clients():
    q = simple_query([[5, 0], [0, 5]], [5, 5], budget=2)
    a = greedy_cover(q)
    validate_assignment(q, a)
    assert a.samples == {"c0": (5, 0), "c1": (0, 5)}


def test_greedy_picks_minimal_cover():
    q = simple_query([[5, 0], [5, 0], [3, 0]], [10, 0])
    a = greedy_cover(q)
    validate_assignment(q, a)
    assert set(a.samples) == {"c0", "c1"}


def test_single_client_shortfall_is_infeasible():
    q = simple_query([[5]], [10])
    with pytest.raises(InfeasibleQueryError) as exc:
        greedy_cover(q)
    assert exc.value.shortfalls == {0: 5}


def test_infeasible_subset_names_each_short_category():
    q = simple_query([[5, 0, 1], [0, 5, 1], [3, 0, 4]], [6, 2, 5])
    with pytest.raises(InfeasibleQueryError) as exc:
        min_makespan_assignment(q, [0, 1])
    assert exc.value.shortfalls == {0: 1, 2: 3}
    assert "category 0: short 1" in str(exc.value)
    assert "category 2: short 3" in str(exc.value)


def test_budget_exceeded_carries_required_count():
    q = simple_query([[4], [4], [4]], [12], budget=2)
    with pytest.raises(BudgetExceededError) as exc:
        greedy_cover(q)
    assert exc.value.required == 3
    assert exc.value.budget == 2


def test_single_client_duration_formula():
    q = simple_query([[20]], [20], speeds=[10.0], bandwidths=[1e6],
                     transfers=[1e6])
    a = exact_milp(q)
    assert a.objective_seconds == pytest.approx(20 / 10 + 1.0, rel=REL)


def test_exact_dominates_greedy_and_respects_guard():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, i = rng.integers(2, 7), rng.integers(1, 4)
        caps = rng.integers(0, 8, size=(n, i))
        totals = caps.sum(axis=0)
        if totals.sum() == 0:
            continue
        preference = (totals * rng.uniform(0.2, 0.8)).astype(np.int64)
        if preference.sum() == 0:
            preference[int(np.argmax(totals))] = min(1, int(totals.max()))
        if preference.sum() == 0:
            continue
        q = simple_query(caps, preference,
                         speeds=rng.uniform(1, 20, n),
                         bandwidths=rng.uniform(1e5, 1e7, n),
                         transfers=rng.uniform(1e4, 1e6, n))
        g = greedy_cover(q)
        e = exact_milp(q)
        validate_assignment(q, g)
        validate_assignment(q, e)
        assert e.objective_seconds <= g.objective_seconds + 1e-9


def test_exact_matches_exhaustive_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, i = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        caps = rng.integers(0, 6, size=(n, i))
        totals = caps.sum(axis=0)
        preference = (totals * 0.5).astype(np.int64)
        if preference.sum() == 0:
            continue
        budget = int(rng.integers(1, n + 1))
        q = simple_query(caps, preference, budget=budget,
                         speeds=rng.uniform(1, 20, n),
                         bandwidths=rng.uniform(1e5, 1e7, n),
                         transfers=rng.uniform(1e4, 1e6, n))
        best = math.inf
        for size in range(1, budget + 1):
            for subset in itertools.combinations(range(n), size):
                sub_caps = q.capacities[list(subset)]
                if np.any(sub_caps.sum(axis=0) < q.preference):
                    continue
                cand = min_makespan_assignment(q, sorted(subset))
                best = min(best, cand.objective_seconds)
        try:
            e = exact_milp(q)
            assert best < math.inf
            assert e.objective_seconds == pytest.approx(best, rel=1e-9, abs=1e-9)
        except InfeasibleQueryError:
            assert best == math.inf


def test_single_category_saturated_instance_ratio_one():
    # preference equals total capacity: every client contributes fully, so
    # greedy and exact coincide
    q = simple_query([[4], [7], [2]], [13],
                     speeds=[5.0, 9.0, 2.0],
                     bandwidths=[1e5, 1e6, 1e7],
                     transfers=[1e5, 1e5, 1e5])
    g = greedy_cover(q)
    e = exact_milp(q)
    validate_assignment(q, g)
    assert g.objective_seconds == pytest.approx(e.objective_seconds, rel=1e-12)


def test_unusable_clients_cannot_carry_coverage():
    # a zero-speed client's capacity can never be drawn on
    q = simple_query([[10]], [5], speeds=[0.0])
    with pytest.raises(InfeasibleQueryError):
        greedy_cover(q)
    q2 = simple_query([[10], [10]], [5], speeds=[0.0, 10.0])
    a = greedy_cover(q2)
    validate_assignment(q2, a)
    assert set(a.samples) == {"c1"}
    # zero bandwidth is fine when there is nothing to transfer
    q3 = simple_query([[10]], [5], speeds=[10.0], bandwidths=[0.0],
                      transfers=[0.0])
    a3 = greedy_cover(q3)
    assert a3.objective_seconds == pytest.approx(0.5)


def test_exact_size_guard():
    caps = np.ones((25, 2), dtype=int)
    q = simple_query(caps, [5, 5])
    with pytest.raises(SizeGuardError):
        exact_milp(q)
    q2 = simple_query(np.ones((4, 6), dtype=int), [1] * 6)
    with pytest.raises(SizeGuardError):
        exact_milp(q2)


def test_exact_finds_budget_feasible_solution_greedy_misses():
    # greedy opens with the balanced client (score 10 beats 9), then needs
    # both specialists, blowing the budget; the exact solver covers with the
    # two specialists alone
    caps = [[9, 0], [0, 9], [5, 5]]
    q = simple_query(caps, [9, 9], budget=2)
    with pytest.raises(BudgetExceededError):
        greedy_cover(q)
    e = exact_milp(q)
    validate_assignment(q, e)
    assert e.participant_count == 2


def test_validator_catches_violations():
    q = simple_query([[5, 0], [0, 5]], [5, 5], budget=1)
    bad_budget = Assignment(samples={"c0": (5, 0), "c1": (0, 5)})
    with pytest.raises(ValueError, match="budget"):
        validate_assignment(q, bad_budget)
    q2 = simple_query([[5, 0], [0, 5]], [5, 5])
    with pytest.raises(ValueError, match="capacity"):
        validate_assignment(q2, Assignment(samples={"c0": (6, 0), "c1": (0, 4)}))
    with pytest.raises(ValueError, match="preference"):
        validate_assignment(q2, Assignment(samples={"c0": (5, 0)}))
    with pytest.raises(ValueError, match="unknown"):
        validate_assignment(q2, Assignment(samples={"zz": (5, 5)}))


# -- representative queries -----------------------------------------------------------

def test_representative_largest_remainder_sums_exactly():
    counts = [300, 200, 100, 1]
    pref = compile_representative_preference(counts, 100)
    assert pref.sum() == 100
    assert pref.tolist() == [50, 33, 17, 0]


def test_representative_preserves_proportions():
    counts = [100, 100, 100, 100]
    assert compile_representative_preference(counts, 10).tolist() == [3, 3, 2, 2]


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                max_size=30).filter(lambda c: sum(c) > 0),
       st.integers(min_value=1, max_value=5000))
def test_representative_always_sums_to_total(counts, total):
    pref = compile_representative_preference(counts, total)
    assert pref.sum() == total
    assert np.all(pref >= 0)
    # categories with zero global mass get nothing
    for c, p in zip(counts, pref):
        if c == 0:
            assert p == 0


def test_representative_preference_sums_columns_without_wrapping():
    # Category 0 totals 2^64 samples, which an int64 sum wraps to 0.
    caps = np.array([[2 ** 62, 0]] * 4 + [[0, 10]], dtype=np.int64)
    query = load_distribution_query({"representative_samples": 4, "budget": 5},
                                    ["a", "b", "c", "d", "e"], caps)
    assert query.preference.tolist() == [4, 0]
    assert greedy_cover(query).samples == {"a": (4, 0)}


# -- files ------------------------------------------------------------------------------

def test_capacity_file_roundtrip(tmp_path):
    path = tmp_path / "caps.tsv"
    path.write_text("client_id\tcategory\tcount\n"
                    "b\t0\t3\n"
                    "a\t1\t2\n"
                    "a\t0\t1\n")
    ids, caps = read_capacity_file(str(path))
    assert ids == ["a", "b"]
    assert caps.tolist() == [[1, 2], [3, 0]]


def test_capacity_file_rejects_bad_header(tmp_path):
    path = tmp_path / "caps.tsv"
    path.write_text("who\twhat\thow\na\t0\t1\n")
    with pytest.raises(ValueError, match="header"):
        read_capacity_file(str(path))


@pytest.mark.parametrize("rows, message", [
    (b"a\t0\t1\n\xff\t0\t1\n", r"caps\.tsv:3: not UTF-8"),
    (f"a\t0\t{2 ** 63}\n".encode(), r"caps\.tsv:2: .* < 2\*\*63"),
    (f"a\t{2 ** 64}\t1\n".encode(), r"caps\.tsv:2: .* < 2\*\*63"),
], ids=["invalid_utf8", "count_2_63", "category_2_64"])
def test_capacity_file_rejects_unreadable_rows_typed(tmp_path, rows, message):
    path = tmp_path / "caps.tsv"
    path.write_bytes(b"client_id\tcategory\tcount\n" + rows)
    with pytest.raises(TableParseError, match=message):
        read_capacity_file(str(path))


def test_client_table_rejects_invalid_utf8_typed(tmp_path):
    path = tmp_path / "clients.tsv"
    path.write_bytes(b"client_id\tspeed\tbandwidth\ttransfer_bytes\n"
                     b"caf\xe9\t1.0\t1000\t10\n")
    with pytest.raises(TableParseError, match=r"clients\.tsv:2: not UTF-8"):
        read_client_table(str(path))


@pytest.mark.parametrize("rows, line", [
    (f"a\t{10 ** 14}\t1\n", 2),
    # 2^26 + 1 columns fit one client; the second client passes the limit.
    (f"a\t{2 ** 26}\t1\nb\t0\t1\n", 3),
    (f"a\t0\t1\nb\t0\t1\nc\t{2 ** 26}\t1\n", 4),
], ids=["one_row_1e14", "second_client", "wide_third_row"])
def test_capacity_file_too_large_for_its_matrix_rejected_typed(tmp_path, rows,
                                                               line):
    # Each file is rejected before the dense matrix is allocated.
    path = tmp_path / "caps.tsv"
    path.write_text("client_id\tcategory\tcount\n" + rows)
    with pytest.raises(TableParseError,
                       match=rf"caps\.tsv:{line}: .* limit of {2 ** 27} cells"):
        read_capacity_file(str(path))


def test_capacity_matrix_limit_admits_the_largest_benchmark_shape():
    # bench-cover and the benchmark go up to 10^6 clients x 30 categories.
    assert testing._MAX_CAPACITY_CELLS >= 10 ** 6 * 30


def test_capacity_file_rejects_duplicate_cell(tmp_path):
    path = tmp_path / "caps.tsv"
    path.write_text("client_id\tcategory\tcount\n"
                    "a\t0\t1\nb\t0\t2\na\t0\t3\n")
    with pytest.raises(ValueError, match=r"caps\.tsv:4: duplicate"):
        read_capacity_file(str(path))


@pytest.mark.parametrize("row", [
    "a\tnan\t1000\t10",
    "a\t5.0\tinf\t10",
    "a\t5.0\t1000\t-inf",
    "a\t-5.0\t1000\t10",
    "a\t5.0\t1000\t-1",
], ids=["nan_speed", "inf_bandwidth", "minus_inf_transfer", "negative_speed",
        "negative_transfer"])
def test_client_table_rejects_bad_value(tmp_path, row):
    path = tmp_path / "clients.tsv"
    path.write_text("client_id\tspeed\tbandwidth\ttransfer_bytes\n"
                    "b\t1.0\t1000\t10\n" + row + "\n")
    with pytest.raises(ValueError, match=r"clients\.tsv:3: "):
        read_client_table(str(path))


def test_client_table_rejects_duplicate_client(tmp_path):
    path = tmp_path / "clients.tsv"
    path.write_text("client_id\tspeed\tbandwidth\ttransfer_bytes\n"
                    "a\t1.0\t1000\t10\na\t2.0\t1000\t10\n")
    with pytest.raises(ValueError, match=r"clients\.tsv:3: duplicate"):
        read_client_table(str(path))


def test_query_descriptor_with_representative_samples(tmp_path):
    caps_path = tmp_path / "caps.tsv"
    caps_path.write_text("client_id\tcategory\tcount\n"
                         "a\t0\t60\nb\t1\t40\n")
    ids, caps = read_capacity_file(str(caps_path))
    query = load_distribution_query({"representative_samples": 50, "budget": 2},
                                    ids, caps)
    assert query.preference.tolist() == [30, 20]
    a = greedy_cover(query)
    validate_assignment(query, a)
    out = tmp_path / "assign.tsv"
    write_assignment_file(str(out), a)
    body = out.read_text().splitlines()
    assert body[0] == "client_id\tcategory\tsamples"
    assert len(body) == 3


@pytest.mark.parametrize("descriptor", [
    ["budget", "preference"],
    "budget",
    {"preference": [5, 5], "budget": 2.7},
    {"preference": [5, 5], "budget": True},
    {"preference": [5, 5], "budget": "2"},
    {"representative_samples": 4.5, "budget": 2},
    {"representative_samples": True, "budget": 2},
    {"preference": [2.9, 2], "budget": 2},
    {"preference": [True, 5], "budget": 2},
    {"preference": {"0": 5, "1": 5}, "budget": 2},
], ids=repr)
def test_mistyped_query_descriptor_rejected(tmp_path, descriptor):
    # Each of these used to run with a truncated or coerced value, or fail
    # with a TypeError instead of a ValueError.
    caps_path = tmp_path / "caps.tsv"
    caps_path.write_text("client_id\tcategory\tcount\n"
                         "a\t0\t60\nb\t1\t40\n")
    ids, caps = read_capacity_file(str(caps_path))
    with pytest.raises(ValueError, match="JSON object|must be"):
        load_distribution_query(descriptor, ids, caps)


def test_client_table_feeds_durations(tmp_path):
    caps_path = tmp_path / "caps.tsv"
    caps_path.write_text("client_id\tcategory\tcount\na\t0\t10\n")
    clients_path = tmp_path / "clients.tsv"
    clients_path.write_text("client_id\tspeed\tbandwidth\ttransfer_bytes\n"
                            "a\t5.0\t1000000\t2000000\n")
    ids, caps = read_capacity_file(str(caps_path))
    table = read_client_table(str(clients_path))
    query = load_distribution_query({"preference": [10], "budget": 1}, ids,
                                    caps, table)
    a = greedy_cover(query)
    assert a.objective_seconds == pytest.approx(10 / 5.0 + 2.0)
