"""Population generation: skew shapes, determinism, trace ingestion."""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from fedsel.errors import TraceParseError
from fedsel.experiments import canonical_population_spec
from fedsel.simulation import corrupt_clients
from fedsel.workload import (PopulationSpec, SimWorld, apply_trace,
                             client_ids_for, generate_population, load_trace)


def sample_count_cdf(s: PopulationSpec, value: int) -> float:
    """Exact CDF of the clamped, floored power-law sample-count draw."""
    if value < s.sample_min:
        return 0.0
    if value >= s.sample_max:
        return 1.0
    return 1.0 - (s.sample_min / (value + 1)) ** (s.sample_exponent - 1.0)


def pairwise_l1_divergence(world: SimWorld, pairs: int = 2000,
                           seed: int = 0) -> np.ndarray:
    """L1 distances between the label distributions of random client pairs."""
    rng = np.random.default_rng(seed)
    dists = world.label_counts().astype(float)
    totals = dists.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    dists /= totals
    a = rng.integers(0, len(dists), size=pairs)
    b = rng.integers(0, len(dists), size=pairs)
    keep = a != b
    return np.abs(dists[a[keep]] - dists[b[keep]]).sum(axis=1)


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
    for name in ("ids", "offsets", "features", "labels", "compute_latency",
                 "bandwidth", "availability", "corrupted", "test_features"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


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
    assert np.all(world.compute_latency > 0)
    assert np.all(world.bandwidth > 0)
    assert np.all((0.8 <= world.availability) & (world.availability <= 1.0))
    assert np.all(world.sample_counts >= 10)


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
    counts = np.sort(generate_population(s).sample_counts)
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
    for row in range(len(world.ids)):
        _, labels = world.shard(row)
        dist = np.bincount(labels, minlength=world.class_count)
        assert np.array_equal(world.label_counts()[row], dist)
        total += dist
    global_counts = world.global_label_counts()
    assert np.array_equal(total.astype(np.int64), global_counts)
    assert global_counts.sum() == world.total_samples()


def test_client_ids_for_matches_generation():
    world = generate_population(spec(client_count=12))
    assert world.ids.tolist() == client_ids_for(12)


@pytest.mark.parametrize("change", ["short_offsets", "offsets_past_labels",
                                    "reversed_ids", "repeated_id"])
def test_world_rejects_misaligned_columns(change):
    world = generate_population(spec(client_count=5))
    bad = {"short_offsets": {"offsets": world.offsets[:-1]},
           "offsets_past_labels": {"offsets": world.offsets + 1},
           "reversed_ids": {"ids": world.ids[::-1]},
           "repeated_id": {"ids": world.ids[[0, 0, 2, 3, 4]]}}[change]
    with pytest.raises(ValueError):
        dataclasses.replace(world, **bad)


def test_every_exported_name_resolves():
    import fedsel
    assert len(set(fedsel.__all__)) == len(fedsel.__all__)
    assert [name for name in fedsel.__all__ if not hasattr(fedsel, name)] == []


# -- traces ----------------------------------------------------------------------


def write_trace(tmp_path, body: str):
    path = tmp_path / "trace.tsv"
    path.write_text(body)
    return str(path)


def test_trace_roundtrip_and_overlay(tmp_path):
    world = generate_population(spec(client_count=5))
    ids = world.ids
    path = write_trace(tmp_path,
                       "client_id\tcompute_latency\tbandwidth\tavailability\n"
                       f"{ids[0]}\t0.5\t1234\t0.9\n"
                       "stranger\t1.0\t5000\t1.0\n")
    rows = load_trace(path)
    unmatched = apply_trace(world, rows)
    assert unmatched == ["stranger"]
    assert world.compute_latency[0] == 0.5
    assert world.bandwidth[0] == 1234
    assert world.availability[0] == 0.9


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
    ids = world.ids
    rows = "client_id\tcompute_latency\tbandwidth\tavailability\n"
    expected = []
    for i, cid in enumerate(ids):
        latency = 0.01 * (i + 1)
        expected.append(latency)
        rows += f"{cid}\t{latency}\t1000\t1.0\n"
    apply_trace(world, load_trace(write_trace(tmp_path, rows)))
    observed = sorted(world.compute_latency.tolist())
    assert observed == sorted(expected)


# -- golden world digests --------------------------------------------------------


def world_digest(world) -> str:
    """Fold the ids, every shard's labels and features, the capacity columns,
    the corruption flags and the test set, in id order, into one digest."""
    digest = hashlib.sha256(repr(world.ids.tolist()).encode())
    for row in range(len(world.ids)):
        features, labels = world.shard(row)
        digest.update(labels.tobytes())
        digest.update(features.tobytes())
    for column in (world.compute_latency, world.bandwidth, world.availability,
                   world.corrupted):
        digest.update(column.tobytes())
    digest.update(world.test_features.tobytes())
    digest.update(world.test_labels.tobytes())
    return digest.hexdigest()


def shifted_small_spec() -> PopulationSpec:
    """The simulator tests' small population, with coupled client shift."""
    return spec(client_count=40, class_count=4, feature_dim=6,
                label_concentration=0.5, sample_exponent=1.8, sample_min=10,
                sample_max=60, latency_log_mu=math.log(0.05),
                latency_log_sigma=0.8, bandwidth_log_mu=math.log(1e4),
                bandwidth_log_sigma=0.5, availability_min=0.9,
                availability_max=1.0, seed=3, test_samples=300,
                client_shift=1.5, shift_latency_coupling=-0.6)


def _traced(world, tmp_path):
    ids = world.ids
    path = write_trace(tmp_path,
                       "client_id\tcompute_latency\tbandwidth\tavailability\n"
                       f"{ids[3]}\t0.25\t777\t0.5\n"
                       "stranger\t1.0\t5000\t1.0\n"
                       f"{ids[0]}\t2.5\t1e5\t1.0\n")
    assert apply_trace(world, load_trace(path)) == ["stranger"]


WORLD_CASES = {
    "canonical_seed1": (lambda: canonical_population_spec(1), None),
    "small_shifted": (shifted_small_spec, None),
    "small_corrupt_fraction": (
        shifted_small_spec,
        lambda w, _: corrupt_clients(w, fraction=0.3, seed=5)),
    "small_corrupt_flip_rate": (
        shifted_small_spec,
        lambda w, _: corrupt_clients(w, flip_rate=0.25, seed=6)),
    "small_trace": (shifted_small_spec, _traced),
}

GOLDEN_WORLD_DIGESTS = {
    "canonical_seed1":
        "d764bf895a0aee3bd0e3b620474dec3c61ab51030780bf35d65c1340dfaafde3",
    "small_corrupt_flip_rate":
        "30979ebb3241eb4cca0592c306792fb6204b727f2f220932e2503a345765124d",
    "small_corrupt_fraction":
        "0fa9fba5223d5c5e8e4662d75661aa858a707afcce36eef5777ee917466c7bcb",
    "small_shifted":
        "6614c27d158e5442951f741056505483e021bc46a955a13c162532858b42041d",
    "small_trace":
        "6a3460c990de8978137acef7e8a2ca747759fc82f6ab4539b63b7d8a8f8c9d38",
}


@pytest.mark.parametrize("case", sorted(WORLD_CASES))
def test_golden_world_digest(case, tmp_path):
    make_spec, mutate = WORLD_CASES[case]
    world = generate_population(make_spec())
    if mutate is not None:
        mutate(world, tmp_path)
    assert world_digest(world) == GOLDEN_WORLD_DIGESTS[case]
