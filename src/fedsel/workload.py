"""Synthetic client populations and device-trace ingestion.

Builds emulated federated populations with the usual non-IID recipe: label
skew from a Dirichlet prior, quantity skew from a clamped power law, and
log-normal compute/network capacities. Capacities can be overridden from a
plain tabular device trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from .errors import TraceParseError, require_finite


@dataclass(frozen=True)
class PopulationSpec:
    """Generation parameters for one emulated population."""

    client_count: int
    class_count: int
    feature_dim: int
    label_concentration: float
    sample_exponent: float
    sample_min: int
    sample_max: int
    latency_log_mu: float
    latency_log_sigma: float
    bandwidth_log_mu: float
    bandwidth_log_sigma: float
    availability_min: float
    availability_max: float
    seed: int
    test_samples: int = 2000
    class_separation: float = 2.0
    client_shift: float = 0.0
    shift_latency_coupling: float = 0.0

    def __post_init__(self):
        require_finite(**vars(self))
        if self.client_count < 1:
            raise ValueError("client_count must be >= 1")
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.label_concentration <= 0:
            raise ValueError("label_concentration must be > 0")
        if self.sample_exponent <= 1.0:
            raise ValueError("sample_exponent must exceed 1")
        if not 1 <= self.sample_min <= self.sample_max:
            raise ValueError("need 1 <= sample_min <= sample_max")
        if self.latency_log_sigma < 0 or self.bandwidth_log_sigma < 0:
            raise ValueError("log-normal sigmas must be >= 0")
        if not 0.0 < self.availability_min <= self.availability_max <= 1.0:
            raise ValueError("availability range must satisfy 0 < min <= max <= 1")
        if self.test_samples < 1:
            raise ValueError("test_samples must be >= 1")
        if self.class_separation <= 0:
            raise ValueError("class_separation must be > 0")
        if self.client_shift < 0:
            raise ValueError("client_shift must be >= 0")
        if not -1.0 <= self.shift_latency_coupling <= 1.0:
            raise ValueError("shift_latency_coupling must be in [-1, 1]")

    @classmethod
    def from_dict(cls, payload: dict) -> "PopulationSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown population fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass
class SimClient:
    """One emulated client: its data shard plus system capacities."""

    client_id: str
    features: np.ndarray
    labels: np.ndarray
    compute_latency: float  # seconds per sample
    bandwidth: float        # bytes per second
    availability: float
    corrupted: bool = False

    @property
    def sample_count(self) -> int:
        return int(self.labels.size)

    def label_counts(self, class_count: int) -> np.ndarray:
        return np.bincount(self.labels, minlength=class_count).astype(np.int64)


@dataclass
class SimWorld:
    """The emulated population plus a held-out test set."""

    clients: dict[str, SimClient]
    class_count: int
    feature_dim: int
    test_features: np.ndarray
    test_labels: np.ndarray
    seed: int
    class_means: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    def client_ids(self) -> list[str]:
        return sorted(self.clients)

    def global_label_counts(self) -> np.ndarray:
        total = np.zeros(self.class_count, dtype=np.int64)
        for client in self.clients.values():
            total += client.label_counts(self.class_count)
        return total

    def total_samples(self) -> int:
        return int(sum(c.sample_count for c in self.clients.values()))


def client_ids_for(count: int) -> list[str]:
    """The ids :func:`generate_population` assigns, without building a world."""
    width = len(str(count - 1))
    return [f"c{i:0{width}d}" for i in range(count)]


def sample_count_cdf(spec: PopulationSpec, value: int) -> float:
    """Exact CDF of the clamped, floored power-law sample-count draw."""
    if value < spec.sample_min:
        return 0.0
    if value >= spec.sample_max:
        return 1.0
    return 1.0 - (spec.sample_min / (value + 1)) ** (spec.sample_exponent - 1.0)


def _draw_sample_counts(rng: np.random.Generator, spec: PopulationSpec,
                        n: int) -> np.ndarray:
    u = rng.random(n)
    raw = spec.sample_min * (1.0 - u) ** (-1.0 / (spec.sample_exponent - 1.0))
    return np.minimum(np.floor(raw).astype(np.int64), spec.sample_max)


def generate_population(spec: PopulationSpec) -> SimWorld:
    """Fully seed-deterministic population build.

    Each client's features come from per-class Gaussians offset by a
    client-specific shift (``client_shift`` scales it; 0 disables), the usual
    input-feature skew on top of Dirichlet label skew and power-law quantity
    skew. The held-out test set is drawn from the same client mixture,
    weighted by sample count, with fresh feature noise.
    """
    rng = np.random.default_rng(spec.seed)
    c, d = spec.class_count, spec.feature_dim

    means = rng.normal(0.0, 1.0, size=(c, d))
    means *= spec.class_separation / np.sqrt(d)

    counts = _draw_sample_counts(rng, spec, spec.client_count)
    label_dists = rng.dirichlet(np.full(c, spec.label_concentration),
                                size=spec.client_count)
    # Client shift can be coupled to how long the client takes per round
    # (slower, data-heavier clients hold systematically different data);
    # marginals stay log-normal latency and Gaussian shift.
    latency_z = rng.normal(0.0, 1.0, size=spec.client_count)
    latencies = np.exp(spec.latency_log_mu + spec.latency_log_sigma * latency_z)
    rho = spec.shift_latency_coupling
    log_duration = np.log(counts.astype(float)) + np.log(latencies)
    spread = log_duration.std()
    duration_z = ((log_duration - log_duration.mean()) / spread
                  if spread > 0 else np.zeros(spec.client_count))
    shift_dir = rng.choice([-1.0, 1.0], size=d)
    shifts = (rho * duration_z[:, None] * shift_dir[None, :]
              + math.sqrt(1.0 - rho * rho)
              * rng.normal(0.0, 1.0, size=(spec.client_count, d)))
    shifts *= spec.client_shift / np.sqrt(d)
    bandwidths = rng.lognormal(spec.bandwidth_log_mu, spec.bandwidth_log_sigma,
                               size=spec.client_count)
    avail = rng.uniform(spec.availability_min, spec.availability_max,
                        size=spec.client_count)

    ids = client_ids_for(spec.client_count)
    clients: dict[str, SimClient] = {}
    for i, cid in enumerate(ids):
        labels = rng.choice(c, size=int(counts[i]), p=label_dists[i])
        features = means[labels] + shifts[i] + rng.normal(
            0.0, 1.0, size=(labels.size, d))
        clients[cid] = SimClient(
            client_id=cid,
            features=features,
            labels=labels,
            compute_latency=float(latencies[i]),
            bandwidth=float(bandwidths[i]),
            availability=float(avail[i]),
        )

    world = SimWorld(clients=clients, class_count=c, feature_dim=d,
                     test_features=np.empty((0, d)),
                     test_labels=np.empty(0, dtype=np.int64),
                     seed=spec.seed, class_means=means)
    # Held-out set mirrors the population: clients weighted by data mass,
    # labels from each client's realized shard.
    weights = counts / counts.sum()
    owners = rng.choice(spec.client_count, size=spec.test_samples, p=weights)
    test_labels = np.empty(spec.test_samples, dtype=np.int64)
    for j, i in enumerate(owners):
        shard = clients[ids[i]].labels
        test_labels[j] = shard[rng.integers(shard.size)]
    test_features = (means[test_labels] + shifts[owners]
                     + rng.normal(0.0, 1.0, size=(spec.test_samples, d)))
    world.test_features = test_features
    world.test_labels = test_labels
    return world


def pairwise_l1_divergence(world: SimWorld, pairs: int = 2000,
                           seed: int = 0) -> np.ndarray:
    """L1 distances between the label distributions of random client pairs."""
    rng = np.random.default_rng(seed)
    ids = world.client_ids()
    dists = np.stack([world.clients[cid].label_counts(world.class_count)
                      for cid in ids]).astype(float)
    totals = dists.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    dists /= totals
    a = rng.integers(0, len(ids), size=pairs)
    b = rng.integers(0, len(ids), size=pairs)
    keep = a != b
    return np.abs(dists[a[keep]] - dists[b[keep]]).sum(axis=1)


@dataclass(frozen=True)
class TraceRow:
    client_id: str
    compute_latency: float
    bandwidth: float
    availability: float


_TRACE_COLUMNS = ("client_id", "compute_latency", "bandwidth", "availability")


def load_trace(path: str) -> list[TraceRow]:
    """Parse a tabular device trace (tab- or comma-separated, header row)."""
    rows: list[TraceRow] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return rows
    sep = "\t" if "\t" in lines[0] else ","
    header = tuple(col.strip() for col in lines[0].split(sep))
    if header != _TRACE_COLUMNS:
        raise TraceParseError(path, 1,
                              f"expected header {','.join(_TRACE_COLUMNS)}")
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(sep)]
        if len(parts) != 4:
            raise TraceParseError(path, line_no, f"expected 4 columns, got {len(parts)}")
        cid = parts[0]
        try:
            latency, bandwidth, availability = (float(parts[1]), float(parts[2]),
                                                float(parts[3]))
            require_finite(compute_latency=latency, bandwidth=bandwidth,
                           availability=availability)
        except ValueError as exc:
            raise TraceParseError(path, line_no, f"bad number: {exc}") from exc
        if latency <= 0 or bandwidth <= 0:
            raise TraceParseError(path, line_no,
                                  "compute_latency and bandwidth must be > 0")
        if not 0.0 < availability <= 1.0:
            raise TraceParseError(path, line_no, "availability must be in (0, 1]")
        if cid in seen:
            raise TraceParseError(path, line_no, f"duplicate client_id {cid!r}")
        seen.add(cid)
        rows.append(TraceRow(cid, latency, bandwidth, availability))
    return rows


def apply_trace(world: SimWorld, rows: Iterable[TraceRow]) -> list[str]:
    """Override matching clients' capacities; returns unmatched client ids."""
    unmatched = []
    for row in rows:
        client = world.clients.get(row.client_id)
        if client is None:
            unmatched.append(row.client_id)
            continue
        client.compute_latency = row.compute_latency
        client.bandwidth = row.bandwidth
        client.availability = row.availability
    return unmatched
