#!/usr/bin/env python3
"""fedsel benchmark: guided training, the selector control plane, testing queries.

    python3 benchmarks/run.py --workload train_guided --seed 1 --seconds 30 --trace 0

Run it from a source checkout: the program is imported from ``src/`` beside
this directory, never from an installed copy. One process does all the work,
with no thread or process pool, and BLAS pinned to one thread.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The lines
before it give the environment, every metric with its unit and sample count,
the error rate and the output digest. A JSON record of the run, with every
span of a traced run, is written to ``benchmarks/out/``. README.md in this
directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

from tracer import Tracer, percentile, samples_beyond

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("train_guided", "select_scale", "testing_queries")
BLAS_THREADS = 1
# Set-up is repeated at least SETUP_REPS times and for at least SETUP_MIN_S
# seconds, so cheap set-ups still get a steady median.
SETUP_REPS = 9
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 100
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    pass


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def pin_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread count was pinned")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # The CLI's thread pool size; nothing here may use a pool.
    os.environ.pop("FEDSEL_THREADS", None)


def import_program(root: str):
    """Import fedsel from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fedsel", "__init__.py")):
        raise ProgramMissing(f"no fedsel sources under {src}")
    sys.path.insert(0, src)
    import fedsel
    if os.path.dirname(os.path.dirname(os.path.abspath(fedsel.__file__))) != src:
        raise ProgramMissing(f"fedsel was imported from {fedsel.__file__}")
    return fedsel


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "processes": 1,
        "seed": seed,
    }


def end_to_end(outcome, setup_s: list[float]) -> dict[str, tuple[float, str]]:
    ops = outcome.op_ms
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "round_ms_p50": (percentile(ops, 50), "ms"),
        "round_ms_p90": (percentile(ops, 90), "ms"),
        "rounds_per_s": (len(ops) / (sum(ops) / 1e3), "1/s"),
    }


def describe_samples(values: list[float], p: float) -> str:
    return f"n={len(values)}, {samples_beyond(len(values), p)} beyond"


def measure(args, scratch: str) -> tuple[dict, dict]:
    """Set up, warm up and run one workload; returns (result line, record)."""
    import workloads

    wl = workloads.WORKLOADS[args.workload](scratch)
    setup_s: list[float] = []
    while len(setup_s) < SETUP_MAX_REPS and (
            len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_MIN_S):
        t0 = time.perf_counter()
        state = wl.build(args.seed)
        setup_s.append(time.perf_counter() - t0)
    wl.warm_up(state, args.seed)

    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = wl.run(state, args.seed, time.perf_counter() + seconds, None)
    outcomes = [plain]
    record: dict = {"setup_s": setup_s}
    if args.trace:
        tracer = Tracer()
        with tracer.installed(workloads.wrap_specs()):
            traced = wl.run(state, args.seed, time.perf_counter() + seconds,
                            tracer)
        outcomes.append(traced)
        leftovers = tracer.leftovers()
        traced.record([f"wrappers left in place: {leftovers}"] if leftovers
                      else [], "tracer restore")
        if tracer.missing:
            traced.record([f"callables not found: {tracer.missing}"],
                          "tracer install")
        layers = workloads.layer_metrics(tracer.summaries(), traced, plain,
                                         getattr(wl, "generate_s", []))
        metrics = {name: (value, workloads.LAYER_UNITS[name])
                   for name, value in layers.items()}
        record["spans"] = tracer.dump()
        shares = workloads.round_shares(layers)
    else:
        metrics = end_to_end(plain, setup_s)
        shares = {}

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    digests = plain.digests
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"  (setup: median of {len(setup_s)} builds; rounds: "
              f"{describe_samples(plain.op_ms, 90)} the p90)")
    for layer, share in shares.items():
        print(f"  share of the traced round in {layer}: {share:.1%}")
    for kind, values in plain.kinds_ms.items():
        if values:
            print(f"  {kind}_ms_p50 = {percentile(values, 50):.6g} ms "
                  f"(n={len(values)})")
    print(f"  error_rate = {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)")
    for line in problems:
        print(f"  problem: {line}")
    print(f"  digest {digests[0] if digests else '-'} "
          f"({len(digests)} units, {len(set(digests))} distinct)")

    record.update({
        "environment": environment(args.seed),
        "args": vars(args),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "query_ms_p50": {kind: {"value": percentile(v, 50), "samples": len(v)}
                         for kind, v in plain.kinds_ms.items() if v},
        "round_ms": plain.op_ms,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": digests,
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        import_program(ROOT)
    except ProgramMissing as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    print("environment", json.dumps(environment(args.seed), sort_keys=True))
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR)
    try:
        result, record = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(f"  record written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
