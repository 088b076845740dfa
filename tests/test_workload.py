"""Population generation: skew shapes, determinism, trace ingestion."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fedsel.errors import TraceParseError
from fedsel.workload import (PopulationSpec, apply_trace, client_ids_for,
                             generate_population, load_trace,
                             pairwise_l1_divergence, sample_count_cdf)


def spec(**overrides) -> PopulationSpec:
    base = dict(
        client_count=200,
        class_count=5,
        feature_dim=8,
        label_concentration=0.3,
        sample_exponent=1.7,
        sample_min=10,
        sample_max=200,
        latency_log_mu=math.log(0.1),
        latency_log_sigma=1.0,
        bandwidth_log_mu=math.log(5e3),
        bandwidth_log_sigma=1.0,
        availability_min=0.8,
        availability_max=1.0,
        seed=0,
        test_samples=500,
    )
    base.update(overrides)
    return PopulationSpec(**base)


def test_same_seed_identical_worlds():
    a = generate_population(spec())
    b = generate_population(spec())
    assert a.client_ids() == b.client_ids()
    for cid in a.client_ids():
        ca, cb = a.clients[cid], b.clients[cid]
        assert np.array_equal(ca.features, cb.features)
        assert np.array_equal(ca.labels, cb.labels)
        assert ca.compute_latency == cb.compute_latency
        assert ca.bandwidth == cb.bandwidth
        assert ca.availability == cb.availability
    assert np.array_equal(a.test_features, b.test_features)


def test_different_seed_differs():
    a = generate_population(spec(seed=0))
    b = generate_population(spec(seed=1))
    assert not np.array_equal(a.test_features, b.test_features)


def test_low_concentration_is_heavily_skewed():
    world = generate_population(spec(client_count=400,
                                     label_concentration=0.1))
    divergences = pairwise_l1_divergence(world, pairs=1500, seed=1)
    assert float(np.median(divergences)) > 0.5


def test_high_concentration_approaches_global_mix():
    world = generate_population(spec(client_count=400,
                                     label_concentration=1000.0,
                                     sample_min=100, sample_max=400))
    divergences = pairwise_l1_divergence(world, pairs=1500, seed=1)
    assert float(np.median(divergences)) < 0.25


def test_capacities_positive_and_availability_in_range():
    world = generate_population(spec())
    for client in world.clients.values():
        assert client.compute_latency > 0
        assert client.bandwidth > 0
        assert 0.8 <= client.availability <= 1.0
        assert client.sample_count >= 10


def test_class_count_guard():
    with pytest.raises(ValueError):
        spec(class_count=1)


@pytest.mark.parametrize("field", [
    "label_concentration", "sample_exponent", "latency_log_mu",
    "latency_log_sigma", "class_separation", "client_shift",
])
def test_non_finite_spec_value_rejected(field):
    with pytest.raises(ValueError, match=field):
        spec(**{field: math.nan})


def test_sample_count_histogram_matches_power_law():
    # Kolmogorov distance against the exact clamped-floored CDF; the 3-sigma
    # critical value for the continuous case is conservative here.
    s = spec(client_count=10_000, sample_min=10, sample_max=100_000)
    counts = np.sort([c.sample_count for c in
                      generate_population(s).clients.values()])
    values = np.unique(counts)
    n = counts.size
    worst = 0.0
    for v in values:
        emp = np.searchsorted(counts, v, side="right") / n
        worst = max(worst, abs(emp - sample_count_cdf(s, int(v))))
    critical = 1.92 / math.sqrt(n)  # P(sqrt(n) D > 1.92) ~ 0.0027
    assert worst < critical


def test_mass_weighted_label_mix_is_global_distribution():
    world = generate_population(spec())
    total = np.zeros(world.class_count)
    for client in world.clients.values():
        dist = client.label_counts(world.class_count)
        total += dist
    global_counts = world.global_label_counts()
    assert np.array_equal(total.astype(np.int64), global_counts)
    assert global_counts.sum() == world.total_samples()


def test_client_ids_for_matches_generation():
    world = generate_population(spec(client_count=12))
    assert world.client_ids() == client_ids_for(12)


# -- traces ----------------------------------------------------------------------


def write_trace(tmp_path, body: str):
    path = tmp_path / "trace.tsv"
    path.write_text(body)
    return str(path)


def test_trace_roundtrip_and_overlay(tmp_path):
    world = generate_population(spec(client_count=5))
    ids = world.client_ids()
    path = write_trace(tmp_path,
                       "client_id\tcompute_latency\tbandwidth\tavailability\n"
                       f"{ids[0]}\t0.5\t1234\t0.9\n"
                       "stranger\t1.0\t5000\t1.0\n")
    rows = load_trace(path)
    unmatched = apply_trace(world, rows)
    assert unmatched == ["stranger"]
    assert world.clients[ids[0]].compute_latency == 0.5
    assert world.clients[ids[0]].bandwidth == 1234
    assert world.clients[ids[0]].availability == 0.9


def test_trace_empty_file_no_overrides(tmp_path):
    path = write_trace(tmp_path, "")
    assert load_trace(path) == []


@pytest.mark.parametrize("row", [
    "a\t0.5\t0\t0.9",
    "a\tnan\t100\t0.9",
    "a\tinf\t100\t0.9",
    "a\t0.5\tinf\t0.9",
], ids=["zero_bandwidth", "nan_latency", "inf_latency", "inf_bandwidth"])
def test_trace_zero_bandwidth_rejected(tmp_path, row):
    path = write_trace(tmp_path,
                       "client_id\tcompute_latency\tbandwidth\tavailability\n"
                       + row + "\n")
    with pytest.raises(TraceParseError) as exc:
        load_trace(path)
    assert exc.value.line_no == 2


def test_trace_malformed_row_reports_line(tmp_path):
    path = write_trace(tmp_path,
                       "client_id\tcompute_latency\tbandwidth\tavailability\n"
                       "a\t0.5\t100\t0.9\n"
                       "b\tnot_a_number\t100\t0.9\n")
    with pytest.raises(TraceParseError) as exc:
        load_trace(path)
    assert exc.value.line_no == 3


def test_trace_duplicate_id_rejected(tmp_path):
    path = write_trace(tmp_path,
                       "client_id\tcompute_latency\tbandwidth\tavailability\n"
                       "a\t0.5\t100\t0.9\n"
                       "a\t0.6\t200\t0.8\n")
    with pytest.raises(TraceParseError):
        load_trace(path)


def test_trace_overlay_matches_empirical_cdf(tmp_path):
    world = generate_population(spec(client_count=30))
    ids = world.client_ids()
    rows = "client_id\tcompute_latency\tbandwidth\tavailability\n"
    expected = []
    for i, cid in enumerate(ids):
        latency = 0.01 * (i + 1)
        expected.append(latency)
        rows += f"{cid}\t{latency}\t1000\t1.0\n"
    apply_trace(world, load_trace(write_trace(tmp_path, rows)))
    observed = sorted(world.clients[cid].compute_latency for cid in ids)
    assert observed == sorted(expected)
