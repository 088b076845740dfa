"""Synthetic client populations and device-trace ingestion.

Builds emulated federated populations with the usual non-IID recipe: label
skew from a Dirichlet prior, quantity skew from a clamped power law, and
log-normal compute/network capacities. Capacities can be overridden from a
plain tabular device trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .errors import TraceParseError, read_table, require_finite


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


@dataclass(eq=False)
class SimWorld:
    """The emulated population as per-client columns, plus a held-out test set.

    Row i is client ``ids[i]``, rows in client-id order; its shard is rows
    ``offsets[i]:offsets[i + 1]`` of ``features`` and ``labels``. Capacities
    are seconds per sample, bytes per second and the chance of being online.
    """

    ids: np.ndarray
    offsets: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    compute_latency: np.ndarray
    bandwidth: np.ndarray
    availability: np.ndarray
    corrupted: np.ndarray
    class_count: int
    feature_dim: int
    test_features: np.ndarray
    test_labels: np.ndarray
    seed: int

    def __post_init__(self):
        n = len(self.labels)
        if (len(self.offsets) != len(self.ids) + 1 or len(self.features) != n
                or self.offsets[0] != 0 or self.offsets[-1] != n
                or np.any(self.ids[1:] <= self.ids[:-1])):
            raise ValueError("need N+1 offsets from 0 to len(labels), increasing ids")

    @property
    def sample_counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def shard(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of client ``row``'s features and labels."""
        lo, hi = self.offsets[row], self.offsets[row + 1]
        return self.features[lo:hi], self.labels[lo:hi]

    def label_counts(self) -> np.ndarray:
        """(clients, classes) matrix of each client's label counts."""
        n, c = len(self.ids), self.class_count
        cells = np.repeat(np.arange(n) * c, self.sample_counts) + self.labels
        return np.bincount(cells, minlength=n * c).reshape(n, c)

    def global_label_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.class_count)

    def total_samples(self) -> int:
        return int(self.offsets[-1])


def client_ids_for(count: int) -> list[str]:
    """The ids :func:`generate_population` assigns, without building a world."""
    width = len(str(count - 1))
    return [f"c{i:0{width}d}" for i in range(count)]


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

    # Each client's draws are written in place, one shard after another.
    offsets = np.concatenate([[0], np.cumsum(counts)])
    features = np.empty((offsets[-1], d))
    labels = np.empty(offsets[-1], dtype=np.int64)
    for i in range(spec.client_count):
        lo, hi = offsets[i], offsets[i + 1]
        labels[lo:hi] = rng.choice(c, size=hi - lo, p=label_dists[i])
        features[lo:hi] = means[labels[lo:hi]] + shifts[i] + rng.normal(
            0.0, 1.0, size=(hi - lo, d))

    # Held-out set mirrors the population: clients weighted by data mass,
    # labels from each client's realized shard.
    weights = counts / counts.sum()
    owners = rng.choice(spec.client_count, size=spec.test_samples, p=weights)
    test_labels = np.empty(spec.test_samples, dtype=np.int64)
    for j, i in enumerate(owners):
        test_labels[j] = labels[offsets[i] + rng.integers(counts[i])]
    test_features = (means[test_labels] + shifts[owners]
                     + rng.normal(0.0, 1.0, size=(spec.test_samples, d)))
    return SimWorld(ids=np.array(client_ids_for(spec.client_count)),
                    offsets=offsets, features=features, labels=labels,
                    compute_latency=latencies, bandwidth=bandwidths,
                    availability=avail,
                    corrupted=np.zeros(spec.client_count, dtype=bool),
                    class_count=c, feature_dim=d, test_features=test_features,
                    test_labels=test_labels, seed=spec.seed)


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
    for line_no, cid, values in read_table(path, _TRACE_COLUMNS,
                                           error=TraceParseError):
        latency, bandwidth, availability = values
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
    row_of = {cid: i for i, cid in enumerate(world.ids.tolist())}
    unmatched = []
    for row in rows:
        i = row_of.get(row.client_id)
        if i is None:
            unmatched.append(row.client_id)
            continue
        world.compute_latency[i] = row.compute_latency
        world.bandwidth[i] = row.bandwidth
        world.availability[i] = row.availability
    return unmatched
