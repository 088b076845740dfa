"""Operator command line: experiments, testing queries and solver benchmarks.

All randomness flows from ``--seed`` (or the seed list in the run config);
rerunning a command with the same inputs rewrites byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import time
from pathlib import Path

import click
import numpy as np

from . import testing
from .errors import BudgetExceededError, InfeasibleQueryError, SizeGuardError
from .experiments import summarize, write_summary_table
from .simulation import POLICIES, TrainingSession, write_metrics_table
from .training import SelectorConfig
from .workload import PopulationSpec, apply_trace, generate_population, load_trace


@click.group()
def main():
    """Participant selection engine for federated training and testing."""


@main.command("simulate-train")
@click.option("--config", "config_path",
              type=click.Path(exists=True, dir_okay=False), required=True,
              help="JSON run config (population, selector, run).")
@click.option("--policy", "policies", multiple=True,
              type=click.Choice(POLICIES), help="Override config policies.")
@click.option("--seed", "seeds", multiple=True, type=int,
              help="Override config seeds (repeatable).")
@click.option("--k", type=int, default=None, help="Completions per round.")
@click.option("--target", type=float, default=None, help="Target accuracy.")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--verbose", is_flag=True, help="Emit per-client utility tables.")
def simulate_train(config_path, policies, seeds, k, target, out_dir, verbose):
    """Run time-to-accuracy experiments and write metric tables."""
    cfg = _load_run_config(config_path)
    policies = list(policies) or cfg["policies"]
    seeds = list(seeds) or cfg["seeds"]
    k = k if k is not None else cfg["k"]
    target = target if target is not None else cfg["target"]
    max_rounds = cfg["max_rounds"]
    if type(k) is not int or k < 1:
        raise click.UsageError(f"k must be an integer >= 1, got {k!r}")
    if type(target) not in (int, float) or not 0.0 <= target < 1.0:
        raise click.UsageError(f"target must be a number in [0, 1), got {target!r}")
    if type(max_rounds) is not int or max_rounds < 0:
        raise click.UsageError(
            f"max_rounds must be an integer >= 0, got {max_rounds!r}")
    if not isinstance(policies, list) or any(p not in POLICIES for p in policies):
        raise click.UsageError(f"policies must be a list drawn from "
                               f"{', '.join(POLICIES)}, got {policies!r}")
    if not (isinstance(seeds, list) and seeds and all(type(s) is int for s in seeds)):
        raise click.UsageError(f"seeds must be a non-empty list of integers: {seeds!r}")
    try:
        selector = SelectorConfig(**cfg["selector"])
        specs = {seed: PopulationSpec.from_dict({**cfg["population"], "seed": seed})
                 for seed in seeds}
        trace = load_trace(cfg["trace_path"]) if cfg.get("trace_path") else []
    except (TypeError, ValueError, OSError) as exc:
        raise click.UsageError(f"bad run config: {exc}") from exc

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records = []
    for policy, seed in itertools.product(policies, seeds):
        world = generate_population(specs[seed])
        if unmatched := apply_trace(world, trace):
            click.echo(f"trace: {len(unmatched)} rows did not match any client")
        table = out / f"utilities_{policy}_seed{seed}.tsv"
        with (open(table, "w", encoding="utf-8") if verbose
              else contextlib.nullcontext()) as sink:
            session = TrainingSession(world, policy, selector, k, seed,
                                      metrics_sink=sink)
            records.append(session.train_to_target(target, max_rounds))
        write_metrics_table(str(out / f"run_{policy}_seed{seed}.tsv"), records[-1])

    rows = summarize(records)
    write_summary_table(str(out / "summary.tsv"), rows)
    for row in rows:
        click.echo(
            f"{row['policy']}: reached {row['reached']}/{row['runs']}, "
            f"rounds {row['rounds_mean']:.1f}±{row['rounds_std']:.1f}, "
            f"wall clock {row['wall_clock_mean']:.1f}±{row['wall_clock_std']:.1f} s")


@main.command("estimate-count")
@click.option("--epsilon", type=float, required=True, help="Deviation tolerance.")
@click.option("--delta", type=float, default=0.95, show_default=True,
              help="Confidence level.")
@click.option("--population", type=int, required=True, help="Total clients N.")
@click.option("--range-min", type=float, required=True)
@click.option("--range-max", type=float, required=True)
@click.option("--validate", "trials", type=click.IntRange(min=0), default=0,
              help="Monte-Carlo trials to check the bound empirically.")
@click.option("--seed", type=int, default=0, show_default=True)
def estimate_count(epsilon, delta, population, range_min, range_max, trials, seed):
    """Participant count that caps data deviation at the given tolerance."""
    try:
        query = testing.DeviationQuery(tolerance=epsilon, confidence=delta,
                                       population=population,
                                       sample_count_range=(range_min, range_max))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    n = testing.estimate_participant_count(query)
    click.echo(f"n = {n}")
    if trials > 0:
        rng = np.random.default_rng(seed)
        counts = rng.uniform(range_min, range_max, size=population)
        rate = testing.verify_bound_montecarlo(query, counts, n, trials,
                                               seed=seed + 1)
        click.echo(f"violation rate = {rate:.4f} (allowed {1 - delta:.4f})")
        if rate > 1 - delta:
            raise click.ClickException("empirical violation rate exceeds 1-delta")


@main.command("compose-testset")
@click.option("--query", "query_path",
              type=click.Path(exists=True, dir_okay=False), required=True,
              help="JSON query descriptor (preference or representative_samples).")
@click.option("--capacities", "capacities_path",
              type=click.Path(exists=True, dir_okay=False), required=True,
              help="Tabular capacity matrix.")
@click.option("--clients", "clients_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Optional per-client speed/bandwidth table.")
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--exact", is_flag=True, help="Also solve with the exact oracle.")
def compose_testset(query_path, capacities_path, clients_path, out_path, exact):
    """Pick participants and per-category sample counts for a testing query."""
    try:
        with open(query_path, "r", encoding="utf-8") as fh:
            descriptor = json.load(fh)
        ids, caps = testing.read_capacity_file(capacities_path)
        table = testing.read_client_table(clients_path) if clients_path else None
        query = testing.load_distribution_query(descriptor, ids, caps, table)
    except (TypeError, ValueError, RecursionError) as exc:
        raise click.UsageError(f"bad testing query: {exc}") from exc
    if table and (unmatched := table.keys() - set(ids)):
        click.echo(f"clients: {len(unmatched)} rows did not match any client")

    start = time.perf_counter()
    overrun = None
    try:
        assignment = testing.greedy_cover(query)
    except InfeasibleQueryError as exc:
        raise click.ClickException(f"infeasible query: {exc}") from exc
    except BudgetExceededError as exc:
        # Greedy may overrun a budget that some other cover meets; the
        # exact solver, when asked for, searches every cover within it.
        if not exact:
            raise click.ClickException(str(exc)) from exc
        overrun = exc
        click.echo(f"greedy: {exc}")
    else:
        greedy_time = time.perf_counter() - start
        testing.validate_assignment(query, assignment)
        testing.write_assignment_file(out_path, assignment)
        click.echo(f"greedy: makespan = {assignment.objective_seconds:.4f} s, "
                   f"participants = {assignment.participant_count}, "
                   f"solver time = {greedy_time:.3f} s")

    if exact:
        start = time.perf_counter()
        try:
            optimal = testing.exact_milp(query)
        except SizeGuardError as exc:
            raise click.ClickException(
                f"{overrun}; {exc}" if overrun else str(exc)) from exc
        except InfeasibleQueryError as exc:
            # Greedy has checked the capacity, so only the budget is short.
            raise click.ClickException(
                f"{overrun}; the exact solver finds no cover within it") from exc
        exact_time = time.perf_counter() - start
        testing.validate_assignment(query, optimal)
        if overrun:
            testing.write_assignment_file(out_path, optimal)
        click.echo(f"exact: makespan = {optimal.objective_seconds:.4f} s, "
                   f"participants = {optimal.participant_count}, "
                   f"solver time = {exact_time:.3f} s")


def _int_list(least: int):
    """Click callback: a comma-separated list of integers >= ``least``."""
    def parse(ctx, param, text: str) -> list[int]:
        try:
            values = [int(s) for s in text.split(",") if s.strip()]
        except ValueError:
            values = []
        if not values or min(values) < least:
            raise click.BadParameter(f"must be a comma-separated list of "
                                     f"integers >= {least}, got {text!r}")
        return values
    return parse


@main.command("bench-cover")
@click.option("--sizes", required=True, callback=_int_list(1),
              help="Comma-separated client counts.")
@click.option("--seeds", default="0", show_default=True, callback=_int_list(0),
              help="Comma-separated seeds.")
@click.option("--categories", type=click.IntRange(min=1), default=3,
              show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
def bench_cover(sizes, seeds, categories, out_path):
    """Compare greedy and exact cover solvers across instance sizes.

    Exact solves at greedy's participant count, so the makespan ratio is
    greedy's against the optimum with as many participants.
    """
    rows = []
    for n in sizes:
        for seed in seeds:
            query = _random_query(n, categories, seed)
            start = time.perf_counter()
            greedy = testing.greedy_cover(query)
            greedy_time = time.perf_counter() - start
            testing.validate_assignment(query, greedy)
            exact_time = ratio = math.nan
            exact_count = 0
            at_budget = dataclasses.replace(query, budget=greedy.participant_count)
            try:
                start = time.perf_counter()
                optimal = testing.exact_milp(at_budget)
                exact_time = time.perf_counter() - start
                testing.validate_assignment(at_budget, optimal)
                exact_count = optimal.participant_count
                if optimal.objective_seconds > 0:
                    ratio = greedy.objective_seconds / optimal.objective_seconds
            except SizeGuardError:
                pass
            rows.append((n, seed, greedy_time, exact_time, ratio,
                         greedy.participant_count, exact_count))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("n_clients\tseed\tgreedy_seconds\texact_seconds\tmakespan_ratio\n")
        for n, seed, gt, et, ratio, _, _ in rows:
            et_s = f"{et:.6f}" if not math.isnan(et) else "guarded"
            ratio_s = f"{ratio:.6f}" if not math.isnan(ratio) else "n/a"
            fh.write(f"{n}\t{seed}\t{gt:.6f}\t{et_s}\t{ratio_s}\n")
    for n, seed, gt, et, ratio, gp, ep in rows:
        suffix = f", ratio {ratio:.3f}" if not math.isnan(ratio) else " (exact guarded)"
        click.echo(f"N={n} seed={seed}: greedy {gt * 1e3:.1f} ms ({gp} participants)"
                   + (f", exact {et * 1e3:.1f} ms ({ep} participants)"
                      if not math.isnan(et) else "")
                   + suffix)


def _random_query(n_clients: int, categories: int, seed: int) -> testing.DistributionQuery:
    rng = np.random.default_rng(seed)
    caps = rng.integers(0, 20, size=(n_clients, categories))
    totals = caps.sum(axis=0)
    preference = np.maximum((totals * 0.4).astype(np.int64), 1)
    preference = np.minimum(preference, totals)
    return testing.DistributionQuery(
        client_ids=tuple(f"n{i:06d}" for i in range(n_clients)),
        capacities=caps,
        preference=preference,
        budget=n_clients,
        speeds=rng.uniform(5.0, 50.0, size=n_clients),
        bandwidths=rng.uniform(1e5, 1e7, size=n_clients),
        transfer_sizes=np.full(n_clients, 1e6),
    )


def _load_run_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise click.UsageError(f"run config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise click.UsageError(f"run config must be a JSON object, "
                               f"got {type(cfg).__name__}")
    trace_path = cfg.get("trace_path")
    if trace_path is not None and not isinstance(trace_path, str):
        raise click.UsageError(
            f"trace_path must be a string, got {trace_path!r}")
    for key in ("population", "selector", "k", "target", "max_rounds",
                "seeds", "policies"):
        if key not in cfg:
            raise click.UsageError(f"run config is missing {key!r}")
    return cfg


if __name__ == "__main__":
    main()
