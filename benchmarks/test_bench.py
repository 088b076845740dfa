"""Self-tests for the benchmark's own arithmetic and tracing.

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
from tracer import (AMOUNT, CALLS, SELF_NS, TOTAL_NS, Tracer,  # noqa: E402
                    WrapSpec, percentile, samples_beyond)

run.import_program(run.ROOT)
import workloads  # noqa: E402


def scripted_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


# -- percentiles -----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0, 3.0], 50) == 3.0
    assert percentile([7.0, 3.0], 90) == 7.0
    assert percentile([4.5], 90) == 4.5


def test_samples_beyond_the_percentile():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9   # p90 needs 100 samples for ten beyond
    assert samples_beyond(200, 50) == 100
    assert samples_beyond(10, 90) == 1
    assert samples_beyond(1, 90) == 0
    assert samples_beyond(0, 90) == 0


def test_percentile_rejects_no_samples_and_bad_p():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


# -- self time -------------------------------------------------------------------


def test_self_time_of_nested_span_tree():
    # R [0,100] > A [10,60] > (A1 [20,30], A2 [35,50]); R > B [70,90]
    tracer = Tracer(clock=scripted_clock([0, 10, 20, 30, 35, 50, 60, 70, 90, 100]))
    with tracer.root("R"):
        a = tracer.open("A")
        a1 = tracer.open("A1")
        tracer.close(a1)
        a2 = tracer.open("A2")
        tracer.close(a2)
        tracer.close(a)
        b = tracer.open("B")
        tracer.close(b)
    (root,) = tracer.summaries()
    assert (root.name, root.duration_ns, root.self_ns) == ("R", 100, 30)
    assert root.paths[("A",)][TOTAL_NS] == 50
    assert root.paths[("A",)][SELF_NS] == 25
    assert root.paths[("A", "A1")][SELF_NS] == 10
    assert root.paths[("A", "A2")][SELF_NS] == 15
    assert root.paths[("B",)][SELF_NS] == 20


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer()
    for name, start, end, parent in (("R", 0, 100, -1), ("x", 10, 40, 0),
                                     ("y", 30, 50, 0), ("z", 120, 130, 0)):
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.amounts.append(0.0)
    (root,) = tracer.summaries()
    assert root.self_ns == 60   # [10,50] covered; z lies outside the parent


def test_paths_aggregate_per_root_and_match_by_suffix():
    tracer = Tracer(clock=scripted_clock(range(0, 1000, 10)))
    for _ in range(2):
        with tracer.root("query.exact"):
            outer = tracer.open("exact_milp")
            greedy = tracer.open("greedy_cover")
            node = tracer.open("min_makespan_assignment")
            tracer.close(node)
            tracer.close(greedy)
            for _ in range(3):
                node = tracer.open("min_makespan_assignment")
                tracer.close(node)
            tracer.close(outer)
    roots = tracer.summaries()
    assert [r.name for r in roots] == ["query.exact", "query.exact"]
    path = ("exact_milp", "min_makespan_assignment")
    assert roots[0].paths[path][CALLS] == 3
    assert workloads._per_root(roots, CALLS, *path) == 3
    assert workloads._per_root(roots, CALLS, "min_makespan_assignment") == 4
    assert workloads._per_root([], CALLS, "anything") == 0.0


# -- wrapping --------------------------------------------------------------------


def test_wrappers_are_gone_after_the_traced_block():
    specs = workloads.wrap_specs()
    originals = [vars(s.owner)[s.attr] for s in specs]
    tracer = Tracer()
    with tracer.installed(specs):
        assert all(vars(s.owner)[s.attr] is not o for s, o in zip(specs, originals))
        assert tracer.missing == []
    assert all(vars(s.owner)[s.attr] is o for s, o in zip(specs, originals))
    assert tracer.leftovers() == []

    import numpy as np
    from fedsel import model
    spans = len(tracer.names)
    model.accuracy(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(4, dtype=int))
    assert len(tracer.names) == spans   # untraced calls record nothing


def test_wrappers_are_restored_when_the_block_raises():
    from fedsel import model
    original = model.accuracy
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed([WrapSpec(model, "accuracy", "accuracy")]):
            raise RuntimeError("boom")
    assert model.accuracy is original
    assert tracer.leftovers() == []


def test_wrapper_records_span_and_amount():
    import numpy as np
    from fedsel import model
    tracer = Tracer()
    spec = WrapSpec(model, "accuracy", "accuracy", lambda a, kw, r: len(a[2]))
    with tracer.installed([spec]), tracer.root("round"):
        model.accuracy(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(4, dtype=int))
    (root,) = tracer.summaries()
    assert root.paths[("accuracy",)][CALLS] == 1
    assert root.paths[("accuracy",)][AMOUNT] == 4


def test_missing_callable_is_reported_not_wrapped():
    from fedsel import model
    tracer = Tracer()
    assert not tracer.wrap(WrapSpec(model, "no_such_function", "ghost"))
    assert tracer.missing == ["ghost"]


# -- entry point -----------------------------------------------------------------


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train_guided",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
