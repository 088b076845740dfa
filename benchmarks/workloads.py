"""The benchmark's three workloads: train_guided, select_scale, testing_queries.

Each workload builds its inputs from the seed with the program's own
generators (``fedsel.experiments.canonical_*``, ``fedsel.workload`` and
``fedsel.cli._random_query``), runs whole operations until a deadline, checks
every output, and folds the deterministic outputs into a digest. Only the
calls into the program are timed; input generation and checks are not.

Import this module only after the BLAS thread count is pinned (run.py does).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from fedsel import (cli, experiments, metastore, model, simulation, testing,
                    training, workload)
from tracer import (AMOUNT, CALLS, SELF_NS, TOTAL_NS, RootSummary, Tracer,
                    WrapSpec)

# Seed-sequence tags, so the benchmark's own draws never share a stream.
_TAG_CLIENTS = 11
_TAG_CANDIDATES = 12
_TAG_REPORTS = 13
_TAG_DEVIATION = 14
_TAG_COVER = 15
_TAG_EXACT = 16

MAX_PROBLEMS = 20


@dataclass
class Outcome:
    """What one measured phase did, and whether its outputs were right."""

    op_ms: list[float] = field(default_factory=list)
    kinds_ms: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    completers: int = 0
    problems: list[str] = field(default_factory=list)
    # One digest per session (training) or per pass over the query mix.
    digests: list[str] = field(default_factory=list)

    def record(self, problems: list[str], where: str) -> None:
        """Count one operation, failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{where}: {'; '.join(problems)}")

    def crash(self, where: str) -> None:
        """Count one operation that raised; the traceback goes to problems."""
        self.record([traceback.format_exc(limit=3).strip()], where)


def _root(tracer: Tracer | None, name: str):
    return tracer.root(name) if tracer is not None else nullcontext()


def _seed_of(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def selection_problems(picked, cap: int, candidates: set, completions: Counter,
                       threshold: int) -> list[str]:
    """Checks shared by both training workloads for one round's picks."""
    problems = []
    if len(set(picked)) != len(picked):
        problems.append("duplicate picks")
    if len(picked) > cap:
        problems.append(f"{len(picked)} picks exceed {cap}")
    strangers = set(picked) - candidates
    if strangers:
        problems.append(f"{len(strangers)} picks are not candidates")
    worn = [c for c in picked if completions[c] >= threshold]
    if worn:
        problems.append(f"{len(worn)} picks already completed {threshold} times")
    return problems


# -- train_guided --------------------------------------------------------------


class TrainGuided:
    """Canonical population (1000 clients, K=50) under the guided policy.

    Every session runs the same fixed number of rounds from the same seed,
    so the load per session is identical and the sessions' digests agree.
    """

    name = "train_guided"
    # Inside STABLE_HORIZON, so blacklist exhaustion never changes the load.
    rounds = 100
    warm_up_rounds = 3

    def __init__(self, scratch_dir: str):
        self.generate_s: list[float] = []

    def build(self, seed: int) -> workload.SimWorld:
        t0 = time.perf_counter()
        world = workload.generate_population(
            experiments.canonical_population_spec(seed))
        self.generate_s.append(time.perf_counter() - t0)
        self._session(world, seed)   # set-up includes registering the clients
        return world

    @staticmethod
    def _session(world, seed: int) -> simulation.TrainingSession:
        return simulation.TrainingSession(
            world, "guided", experiments.canonical_selector_config(),
            experiments.CANONICAL_K, seed)

    def warm_up(self, world, seed: int) -> None:
        session = self._session(world, seed)
        for _ in range(self.warm_up_rounds):
            session.run_round()

    def run(self, world, seed: int, deadline: float,
            tracer: Tracer | None) -> Outcome:
        out = Outcome()
        k = experiments.CANONICAL_K
        invite_cap = math.ceil(simulation.OVERCOMMIT * k)
        while time.perf_counter() < deadline:
            session = self._session(world, seed)
            threshold = session.config.blacklist_threshold
            completions: Counter = Counter()
            digest = hashlib.sha256()
            result = None
            try:
                for _ in range(self.rounds):
                    with _root(tracer, "round"):
                        t0 = time.perf_counter()
                        result = session.run_round()
                        out.op_ms.append((time.perf_counter() - t0) * 1e3)
                    # The session's own definition of who is online this round.
                    available = set(session._available_clients(result.round_index))
                    problems = selection_problems(result.invited, invite_cap,
                                                  available, completions,
                                                  threshold)
                    done = result.completers
                    if len(set(done)) != len(done) or len(done) > k:
                        problems.append(f"{len(done)} completers, distinct "
                                        f"{len(set(done))}, K={k}")
                    if not set(done) <= set(result.invited):
                        problems.append("completer was not invited")
                    out.record(problems, f"round {result.round_index}")
                    out.completers += len(done)
                    completions.update(done)
                    digest.update(f"{result.round_index}:{','.join(done)}\n".encode())
            except Exception:
                out.crash(f"session at round {session.store.round_index}")
                continue
            digest.update(repr(result.accuracy).encode())
            out.digests.append(digest.hexdigest())
        return out


# -- select_scale --------------------------------------------------------------


@dataclass
class ScaleState:
    store: metastore.MetaStore
    selector: training.TrainingSelector
    ids: list[str]
    index: dict[str, int]
    samples: np.ndarray
    durations: np.ndarray
    completions: Counter


class SelectScale:
    """Metadata-only store of 10^4 clients driving the training selector.

    A round is advance_round, view, select_participants(k=100) over about
    90% of the clients, then update_with_feedback from seeded reports. The
    store checkpoints every fifth round, so one round in five writes a file.
    """

    name = "select_scale"
    clients = 10_000
    k = 100
    # A multiple of checkpoint_every, so each store sees the same mix.
    rounds = 50
    checkpoint_every = 5
    candidate_share = 0.9
    explored_share = 0.5
    loss_rms = (0.2, 2.5)

    def __init__(self, scratch_dir: str):
        self.checkpoint_path = os.path.join(scratch_dir, "select_scale.json")
        self.config = experiments.canonical_selector_config()

    def build(self, seed: int) -> ScaleState:
        spec = experiments.canonical_population_spec(seed,
                                                     client_count=self.clients)
        rng = np.random.default_rng([seed, _TAG_CLIENTS])
        latency = rng.lognormal(spec.latency_log_mu, spec.latency_log_sigma,
                                self.clients)
        bandwidth = rng.lognormal(spec.bandwidth_log_mu,
                                  spec.bandwidth_log_sigma, self.clients)
        samples = workload._draw_sample_counts(rng, spec, self.clients)
        size = model.model_bytes(model.init_weights(spec.class_count,
                                                    spec.feature_dim))
        durations = samples * latency + size / bandwidth
        explored = np.flatnonzero(rng.random(self.clients) < self.explored_share)
        utilities = samples[explored] * rng.uniform(*self.loss_rms, explored.size)

        cfg = self.config
        store = metastore.MetaStore(
            preferred_duration=cfg.pacer_step,
            clip_percentile=cfg.clip_percentile,
            blacklist_threshold=cfg.blacklist_threshold,
            checkpoint_every=self.checkpoint_every,
            checkpoint_path=self.checkpoint_path)
        ids = workload.client_ids_for(self.clients)
        for cid, lat in zip(ids, latency):
            store.register_client(cid, speed_hint=float(1.0 / lat))
        r = store.advance_round()
        store.update_with_feedback(
            metastore.RoundFeedback(ids[i], float(u), float(durations[i]), r)
            for i, u in zip(explored, utilities))
        return ScaleState(store=store,
                          selector=training.TrainingSelector(cfg, seed=seed),
                          ids=ids, index={c: i for i, c in enumerate(ids)},
                          samples=samples, durations=durations,
                          completions=Counter(ids[i] for i in explored))

    def _round_inputs(self, state: ScaleState, seed: int, r: int):
        rng = np.random.default_rng([seed, r, _TAG_CANDIDATES])
        mask = rng.random(self.clients) < self.candidate_share
        candidates = [state.ids[i] for i in np.flatnonzero(mask)]
        loss = np.random.default_rng([seed, r, _TAG_REPORTS]).uniform(
            *self.loss_rms, self.k)
        return candidates, loss

    def _round(self, state: ScaleState, candidates, loss) -> tuple[int, list[str]]:
        store = state.store
        r = store.advance_round()
        view = store.view()
        selected, _ = state.selector.select_participants(view, self.k, r,
                                                         candidates=candidates)
        store.update_with_feedback(
            metastore.RoundFeedback(
                cid, float(state.samples[state.index[cid]] * loss[j]),
                float(state.durations[state.index[cid]]), r)
            for j, cid in enumerate(selected))
        return r, selected

    def warm_up(self, state: ScaleState, seed: int) -> None:
        r = state.store.round_index + 1
        self._round(state, *self._round_inputs(state, seed, r))

    def run(self, state: ScaleState, seed: int, deadline: float,
            tracer: Tracer | None) -> Outcome:
        out = Outcome()
        threshold = self.config.blacklist_threshold
        while time.perf_counter() < deadline:
            with _root(tracer, "inputs"):
                state = self.build(seed)
            digest = hashlib.sha256()
            try:
                for _ in range(self.rounds):
                    candidates, loss = self._round_inputs(
                        state, seed, state.store.round_index + 1)
                    with _root(tracer, "round"):
                        t0 = time.perf_counter()
                        r, selected = self._round(state, candidates, loss)
                        out.op_ms.append((time.perf_counter() - t0) * 1e3)
                    problems = selection_problems(selected, self.k,
                                                  set(candidates),
                                                  state.completions, threshold)
                    out.record(problems, f"round {r}")
                    out.completers += len(selected)
                    state.completions.update(selected)
                    digest.update(f"{r}:{','.join(selected)}\n".encode())
            except Exception:
                out.crash(f"round {state.store.round_index}")
                continue
            out.digests.append(digest.hexdigest())
        return out


# -- testing_queries -----------------------------------------------------------


@dataclass
class Cycle:
    """Inputs of one pass over the query mix."""

    deviation: testing.DeviationQuery
    counts: list[np.ndarray]
    trial_seeds: list[int]
    cover: testing.DistributionQuery
    exact: list[testing.DistributionQuery]
    greedy: list[testing.Assignment]   # greedy on each ``exact``, same budget


def _assignment_text(a: testing.Assignment) -> str:
    cells = ";".join(f"{cid}={','.join(map(str, a.samples[cid]))}"
                     for cid in sorted(a.samples))
    return f"{a.objective_seconds!r}|{cells}"


class TestingQueries:
    """A fixed mix of deviation, cover and exact queries on fresh instances.

    One round of this workload is one pass over the mix: ``deviations``
    deviation queries, one greedy cover and ``exacts`` exact solves, sized so
    each kind takes a similar share of the round (see README.md for the
    sizing measurements), so a change to any kind moves the round time.
    """

    name = "testing_queries"
    deviations = 2
    exacts = 2
    population = 10_000
    tolerance = 5.0
    confidence = 0.95
    trials = 2000
    cover_shape = (1000, 30)
    exact_shape = (8, 3)

    def __init__(self, scratch_dir: str):
        pass

    def build(self, seed: int, cycle: int = 0) -> Cycle:
        spec = experiments.canonical_population_spec(
            seed, client_count=self.population)
        query = testing.DeviationQuery(
            tolerance=self.tolerance, population=self.population,
            sample_count_range=(float(spec.sample_min), float(spec.sample_max)),
            confidence=self.confidence)
        counts, trial_seeds = [], []
        for d in range(self.deviations):
            rng = np.random.default_rng([seed, cycle, _TAG_DEVIATION, d])
            counts.append(workload._draw_sample_counts(rng, spec,
                                                       self.population))
            trial_seeds.append(_seed_of(seed, cycle, _TAG_DEVIATION, d))
        cover = cli._random_query(*self.cover_shape,
                                  _seed_of(seed, cycle, _TAG_COVER))
        exact = []
        for e in range(self.exacts):
            instance = cli._random_query(*self.exact_shape,
                                         _seed_of(seed, cycle, _TAG_EXACT, e))
            # Budget at greedy's participant count, so branch-and-bound must
            # search instead of stopping at the budget-free root.
            exact.append(dataclasses.replace(
                instance,
                budget=testing.greedy_cover(instance).participant_count))
        return Cycle(deviation=query, counts=counts, trial_seeds=trial_seeds,
                     cover=cover, exact=exact,
                     greedy=[testing.greedy_cover(q) for q in exact])

    def warm_up(self, cycle: Cycle, seed: int) -> None:
        testing.exact_milp(cycle.exact[0])
        testing.verify_bound_montecarlo(cycle.deviation, cycle.counts[0],
                                        1, 10, seed=seed)

    def run(self, first: Cycle, seed: int, deadline: float,
            tracer: Tracer | None) -> Outcome:
        out = Outcome()
        for kind in ("deviation", "cover", "exact"):
            out.kinds_ms[kind] = []
        index = 0
        while time.perf_counter() < deadline:
            with _root(tracer, "inputs"):
                cycle = first if index == 0 else self.build(seed, index)
            digest = hashlib.sha256()
            spent = 0.0
            for d in range(self.deviations):
                spent += self._deviation(out, cycle, d, tracer, digest)
            spent += self._cover(out, cycle, tracer, digest)
            for query, greedy in zip(cycle.exact, cycle.greedy):
                spent += self._exact(out, query, greedy, tracer, digest)
            out.op_ms.append(spent * 1e3)
            out.digests.append(digest.hexdigest())
            index += 1
        return out

    def _timed(self, out: Outcome, kind: str, tracer, call):
        """Run one query under its root span; returns (result, seconds)."""
        with _root(tracer, f"query.{kind}"):
            t0 = time.perf_counter()
            result = call()
            spent = time.perf_counter() - t0
        out.kinds_ms[kind].append(spent * 1e3)
        return result, spent

    def _deviation(self, out, cycle: Cycle, d: int, tracer, digest) -> float:
        query = cycle.deviation

        def call():
            n = testing.estimate_participant_count(query)
            return n, testing.verify_bound_montecarlo(
                query, cycle.counts[d], n, self.trials,
                seed=cycle.trial_seeds[d])

        try:
            (n, rate), spent = self._timed(out, "deviation", tracer, call)
        except Exception:
            out.crash("deviation query")
            return 0.0
        problems = []
        if rate > 1.0 - query.confidence:
            problems.append(f"violation rate {rate} above {1 - query.confidence}")
        out.record(problems, "deviation query")
        digest.update(f"deviation:{n}:{rate!r}\n".encode())
        return spent

    def _cover(self, out, cycle: Cycle, tracer, digest) -> float:
        try:
            assignment, spent = self._timed(
                out, "cover", tracer, lambda: testing.greedy_cover(cycle.cover))
        except Exception:
            out.crash("cover query")
            return 0.0
        out.record(_validation(cycle.cover, assignment), "cover query")
        digest.update(f"cover:{_assignment_text(assignment)}\n".encode())
        return spent

    def _exact(self, out, query, greedy, tracer, digest) -> float:
        try:
            assignment, spent = self._timed(
                out, "exact", tracer, lambda: testing.exact_milp(query))
        except Exception:
            out.crash("exact query")
            return 0.0
        problems = _validation(query, assignment)
        greedy = greedy.objective_seconds
        if assignment.objective_seconds > greedy * (1 + 1e-9):
            problems.append(f"exact makespan {assignment.objective_seconds} "
                            f"above greedy {greedy}")
        out.record(problems, "exact query")
        digest.update(f"exact:{_assignment_text(assignment)}\n".encode())
        return spent


def _validation(query, assignment) -> list[str]:
    try:
        testing.validate_assignment(query, assignment)
    except ValueError as exc:
        return [f"invalid assignment: {exc}"]
    return []


WORKLOADS = {w.name: w for w in (TrainGuided, SelectScale, TestingQueries)}


# -- tracing -------------------------------------------------------------------


def wrap_specs() -> list[WrapSpec]:
    """Every callable the traced run wraps, where its callers look it up."""
    store, selector = metastore.MetaStore, training.TrainingSelector
    return [
        WrapSpec(model, "local_epoch", "local_epoch",
                 lambda a, kw, r: len(a[2])),
        WrapSpec(model, "accuracy", "accuracy"),
        WrapSpec(store, "view", "view", lambda a, kw, r: a[0].client_count),
        WrapSpec(store, "update_with_feedback", "update_with_feedback"),
        WrapSpec(store, "save", "save",
                 lambda a, kw, r: os.path.getsize(a[1])),
        WrapSpec(metastore, "clip_cap", "clip_cap"),
        WrapSpec(selector, "select_participants", "select_participants"),
        WrapSpec(selector, "compute_breakdowns", "compute_breakdowns"),
        WrapSpec(training, "weighted_sample_without_replacement",
                 "weighted_sample", lambda a, kw, r: len(r)),
        WrapSpec(simulation.TrainingSession, "run_round", "run_round"),
        WrapSpec(testing, "greedy_cover", "greedy_cover"),
        WrapSpec(testing, "min_makespan_assignment", "min_makespan_assignment"),
        WrapSpec(testing, "maximum_flow", "maximum_flow"),
        WrapSpec(testing, "exact_milp", "exact_milp"),
        WrapSpec(testing, "verify_bound_montecarlo", "verify_bound_montecarlo"),
    ]


def _per_root(roots: list[RootSummary], column: int, *suffix: str) -> float:
    """Mean over ``roots`` of the column summed over paths ending in ``suffix``."""
    if not roots:
        return 0.0
    total = 0.0
    for root in roots:
        for path, entry in root.paths.items():
            if path[-len(suffix):] == suffix:
                total += entry[column]
    return total / len(roots)


def _ms(roots, column, *suffix) -> float:
    return _per_root(roots, column, *suffix) / 1e6


# Per-layer metrics: name -> unit. Every one is reported on every workload;
# a layer a workload does not reach reads 0. Times and counts are per round
# (per query of the named kind for testing.*).
LAYER_UNITS = {
    "workload.generate_ms": "ms",
    "trace.op_ms": "ms",
    "trace.overhead_pct": "%",
    "simulation.round_self_ms": "ms",
    "simulation.kept_update_ratio": "ratio",
    "model.local_epoch_ms": "ms",
    "model.local_epoch_calls": "count",
    "model.samples_trained": "count",
    "model.accuracy_ms": "ms",
    "metastore.view_ms": "ms",
    "metastore.view_calls": "count",
    "metastore.records_copied": "count",
    "metastore.update_ms": "ms",
    "metastore.clip_cap_ms": "ms",
    "metastore.save_ms": "ms",
    "metastore.checkpoint_bytes": "bytes",
    "training.select_ms": "ms",
    "training.breakdowns_ms": "ms",
    "training.sample_ms": "ms",
    "training.sample_draws": "count",
    "training.select_self_ms": "ms",
    "testing.greedy_phase1_ms": "ms",
    "testing.makespan_ms": "ms",
    "testing.flow_probes": "count",
    "testing.flow_ms": "ms",
    "testing.bnb_nodes": "count",
    "testing.bnb_flow_probes": "count",
    "testing.montecarlo_ms": "ms",
}


def layer_metrics(roots: list[RootSummary], traced: Outcome, plain: Outcome,
                  generate_s: list[float]) -> dict[str, float]:
    """Per-layer metrics from the traced phase's spans."""
    rounds = [r for r in roots if r.name == "round"]
    dev = [r for r in roots if r.name == "query.deviation"]
    cover = [r for r in roots if r.name == "query.cover"]
    exact = [r for r in roots if r.name == "query.exact"]
    epochs = _per_root(rounds, CALLS, "local_epoch") * len(rounds)
    traced_ms = sum(traced.op_ms) / max(len(traced.op_ms), 1)
    plain_ms = sum(plain.op_ms) / max(len(plain.op_ms), 1)
    bnb = ("exact_milp", "min_makespan_assignment")
    return {
        "workload.generate_ms":
            float(np.median(generate_s)) * 1e3 if generate_s else 0.0,
        "trace.op_ms": traced_ms,
        "trace.overhead_pct":
            (traced_ms / plain_ms - 1.0) * 100.0 if plain_ms > 0 else 0.0,
        "simulation.round_self_ms": _ms(rounds, SELF_NS, "run_round"),
        "simulation.kept_update_ratio":
            traced.completers / epochs if epochs else 0.0,
        "model.local_epoch_ms": _ms(rounds, TOTAL_NS, "local_epoch"),
        "model.local_epoch_calls": _per_root(rounds, CALLS, "local_epoch"),
        "model.samples_trained": _per_root(rounds, AMOUNT, "local_epoch"),
        "model.accuracy_ms": _ms(rounds, TOTAL_NS, "accuracy"),
        "metastore.view_ms": _ms(rounds, TOTAL_NS, "view"),
        "metastore.view_calls": _per_root(rounds, CALLS, "view"),
        "metastore.records_copied": _per_root(rounds, AMOUNT, "view"),
        "metastore.update_ms": _ms(rounds, TOTAL_NS, "update_with_feedback"),
        "metastore.clip_cap_ms": _ms(rounds, TOTAL_NS, "clip_cap"),
        "metastore.save_ms": _ms(rounds, TOTAL_NS, "save"),
        "metastore.checkpoint_bytes": _per_root(rounds, AMOUNT, "save"),
        "training.select_ms": _ms(rounds, TOTAL_NS, "select_participants"),
        "training.breakdowns_ms": _ms(rounds, TOTAL_NS, "compute_breakdowns"),
        "training.sample_ms": _ms(rounds, TOTAL_NS, "weighted_sample"),
        "training.sample_draws": _per_root(rounds, AMOUNT, "weighted_sample"),
        "training.select_self_ms": _ms(rounds, SELF_NS, "select_participants"),
        "testing.greedy_phase1_ms": _ms(cover, SELF_NS, "greedy_cover"),
        "testing.makespan_ms":
            _ms(cover, TOTAL_NS, "greedy_cover", "min_makespan_assignment"),
        "testing.flow_probes": _per_root(cover, CALLS, "maximum_flow"),
        "testing.flow_ms": _ms(cover, TOTAL_NS, "maximum_flow"),
        "testing.bnb_nodes": _per_root(exact, CALLS, *bnb),
        "testing.bnb_flow_probes":
            _per_root(exact, CALLS, *bnb, "maximum_flow"),
        "testing.montecarlo_ms": _ms(dev, TOTAL_NS, "verify_bound_montecarlo"),
    }


def round_shares(layers: dict[str, float]) -> dict[str, float]:
    """Shares of the traced round time spent in the model and in the control plane."""
    op = layers["trace.op_ms"]
    if op <= 0:
        return {}
    control = ("training.select_ms", "metastore.view_ms",
               "metastore.update_ms", "metastore.save_ms")
    return {
        "model.*": (layers["model.local_epoch_ms"]
                    + layers["model.accuracy_ms"]) / op,
        "training.* + metastore.*": sum(layers[n] for n in control) / op,
    }
