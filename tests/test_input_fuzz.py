"""Fuzzing the input boundaries: each table reader returns valid rows or fails
typed, a testing-query descriptor loads into a query the cover solver
answers, or is rejected with a ValueError, and clients at the extremes of the
float range get a finite makespan or a typed error."""

from __future__ import annotations

import math
import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from deadline import deadline
from fedsel import testing
from fedsel.errors import FedselError
from fedsel.testing import read_capacity_file, read_client_table
from fedsel.workload import load_trace

_TRACE = [["client_id", "compute_latency", "bandwidth", "availability"],
          ["a", "0.5", "1234", "0.9"],
          ["b", "1e-3", "5e6", "1"],
          ["c", "2", "10", "0.25"]]
_CAPACITIES = [["client_id", "category", "count"],
               ["a", "0", "3"],
               ["b", "2", "7"],
               ["a", "1", "0"]]
_CLIENTS = [["client_id", "speed", "bandwidth", "transfer_bytes"],
            ["a", "5.0", "1000", "10"],
            ["b", "0", "1e6", "0"],
            ["c", "12.5", "3", "1e6"]]

# Row 0 is the header, so a mutation may hit it too.
_CELLS = st.sampled_from(["nan", "-inf", "inf", "1e400", "9" * 5000, "-1",
                          "0", "\ud800", "\x85", "\t", ",", ""])


def mutation_lists(cells: st.SearchStrategy[str]) -> st.SearchStrategy[list]:
    return st.lists(st.one_of(
        st.tuples(st.just("cell"), st.integers(0, 3), st.integers(0, 3), cells),
        st.tuples(st.just("duplicate"), st.integers(0, 3)),
        st.tuples(st.just("truncate"), st.integers(0, 1 << 10)),
        st.tuples(st.just("flip"), st.integers(0, 1 << 10), st.integers(1, 255)),
    ), min_size=1, max_size=4)


_MUTATIONS = mutation_lists(_CELLS)
_CAPACITY_MUTATIONS = mutation_lists(_CELLS | st.sampled_from(
    [str(10 ** 14), str(2 ** 27), str(2 ** 63 - 1), "3", "1"]))
# The capacity property runs under this cell limit. Byte flips can turn a
# huge category into any smaller number, and the reader's own limit admits
# matrices of 1 GiB, which a test must not allocate.
_FUZZ_CAPACITY_CELLS = 2 ** 12


def mutated(table: list[list[str]], sep: str, mutations) -> bytes:
    """``table`` written with ``sep``, after its cell and row mutations,
    with its byte mutations applied to the encoded text."""
    rows = [list(row) for row in table]
    for kind, *args in mutations:
        if kind == "cell":
            row, col, value = args
            cells = rows[row % len(rows)]
            cells[col % len(cells)] = value
        elif kind == "duplicate":
            rows.append(list(rows[args[0] % len(rows)]))
    text = "".join(sep.join(row) + "\n" for row in rows)
    data = bytearray(text.encode("utf-8", "surrogatepass"))
    for kind, *args in mutations:
        if kind == "truncate":
            del data[args[0] % (len(data) + 1):]
        elif kind == "flip" and data:
            data[args[0] % len(data)] ^= args[1]
    return bytes(data)


def read_or_fail_typed(reader, data: bytes):
    """What ``reader`` returns for a file holding ``data``, or None if it
    raised a FedselError; any other exception fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            return reader(path)
        except FedselError:
            return None


@settings(max_examples=300, deadline=None)
@given(sep=st.sampled_from(["\t", ","]), mutations=_MUTATIONS)
def test_mutated_trace_loads_or_fails_typed(sep, mutations):
    rows = read_or_fail_typed(load_trace, mutated(_TRACE, sep, mutations))
    if rows is not None:
        assert len({row.client_id for row in rows}) == len(rows)
        for row in rows:
            assert math.isfinite(row.compute_latency) and row.compute_latency > 0
            assert math.isfinite(row.bandwidth) and row.bandwidth > 0
            assert 0.0 < row.availability <= 1.0


@settings(max_examples=300, deadline=None)
@given(sep=st.sampled_from(["\t", ","]), mutations=_MUTATIONS)
def test_mutated_client_table_loads_or_fails_typed(sep, mutations):
    table = read_or_fail_typed(read_client_table,
                               mutated(_CLIENTS, sep, mutations))
    if table is not None:
        for values in table.values():
            assert all(math.isfinite(v) and v >= 0 for v in values)


@settings(max_examples=300, deadline=None)
@given(sep=st.sampled_from(["\t", ","]), mutations=_CAPACITY_MUTATIONS)
def test_mutated_capacity_table_loads_or_fails_typed(sep, mutations):
    with mock.patch.object(testing, "_MAX_CAPACITY_CELLS", _FUZZ_CAPACITY_CELLS):
        read = read_or_fail_typed(read_capacity_file,
                                  mutated(_CAPACITIES, sep, mutations))
    if read is not None:
        ids, caps = read
        assert ids == sorted(set(ids)) and ids
        assert caps.dtype == np.int64 and caps.shape[0] == len(ids)
        assert 1 <= caps.size <= _FUZZ_CAPACITY_CELLS and np.all(caps >= 0)


# Descriptor values of every JSON type, with integers at the int32 and int64
# edges and past them.
_QUERY_VALUES = st.one_of(
    st.integers(0, 12),
    st.sampled_from([-1, 2 ** 31 - 1, 2 ** 31, 2 ** 63 - 1, 2 ** 63, 10 ** 400]),
    st.booleans(), st.none(), st.text(max_size=2), st.just([]), st.just({}),
    st.floats(allow_nan=True, allow_infinity=True))
# Capacity counts up to the largest a capacity file admits.
_COUNTS = st.one_of(st.integers(0, 6), st.integers(0, 2 ** 63 - 1),
                    st.sampled_from([2 ** 31 - 1, 2 ** 31, 2 ** 62, 2 ** 63 - 1]))


@st.composite
def capacity_matrices(draw):
    n, i = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cells = draw(st.lists(_COUNTS, min_size=n * i, max_size=n * i))
    return np.array(cells, dtype=np.int64).reshape(n, i)


@st.composite
def query_descriptors(draw, categories: int):
    """A descriptor with mistyped or out-of-range fields, a preference of
    the wrong length, or keys missing; now and then no JSON object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_QUERY_VALUES)

    def value():  # mostly a count, so that many queries reach the solver
        return draw(st.integers(1, 12) if draw(st.integers(0, 7))
                    else _QUERY_VALUES)

    length = draw(st.sampled_from([categories] * 4
                                  + [categories - 1, categories + 1]))
    descriptor = {"preference": [value() for _ in range(length)],
                  "representative_samples": value(), "budget": value()}
    for key in list(descriptor):
        action = draw(st.sampled_from(["keep"] * 6 + ["drop", "retype"]))
        if action == "drop":
            del descriptor[key]
        elif action == "retype":
            descriptor[key] = draw(_QUERY_VALUES)
    return descriptor


@settings(max_examples=400, deadline=None)
@given(data=st.data(), caps=capacity_matrices())
def test_query_descriptor_loads_or_fails_typed(data, caps):
    descriptor = data.draw(query_descriptors(caps.shape[1]))
    ids = [f"c{j}" for j in range(len(caps))]
    try:
        query = testing.load_distribution_query(descriptor, ids, caps)
    except ValueError:
        event("rejected")
        return
    assert 0 < query.preference.sum() < 2 ** 31
    assert np.array_equal(query.capacities, caps)
    try:
        assignment = testing.greedy_cover(query)
    except FedselError as exc:
        event(type(exc).__name__)
        return
    testing.validate_assignment(query, assignment)
    event("solved")


# Extremes of the client table: zero, subnormal and near-overflow speeds and
# bandwidths, and transfers up to the largest float.
_SPEEDS = [0.0, 5e-324, 1e-310, 1e-300, 1e-5, 1.0, 7.0, 1e11, 1e300, 1.7e308]
_BANDWIDTHS = [0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300]
_TRANSFER_SIZES = [0.0, 1.0, 1e7 / 3, 1e300, 1.7e308]


@st.composite
def extreme_queries(draw):
    n, i = draw(st.integers(1, 5)), draw(st.integers(1, 2))
    caps = np.array(draw(st.lists(st.integers(0, 4), min_size=n * i,
                                  max_size=n * i)),
                    dtype=np.int64).reshape(n, i)
    preference = [draw(st.integers(0, int(t))) for t in caps.sum(axis=0)]
    assume(sum(preference) > 0)

    def column(values):
        return draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))

    return testing.DistributionQuery(
        client_ids=tuple(f"c{j}" for j in range(n)), capacities=caps,
        preference=preference, budget=draw(st.integers(1, n)),
        speeds=column(_SPEEDS), bandwidths=column(_BANDWIDTHS),
        transfer_sizes=column(_TRANSFER_SIZES))


@settings(max_examples=300, deadline=None)
@given(extreme_queries())
def test_extreme_clients_get_a_finite_makespan_or_fail_typed(query):
    makespans = {}
    for solver in (testing.greedy_cover, testing.exact_milp):
        try:
            with deadline(10):
                got = solver(query)
        except FedselError as exc:
            event(f"{solver.__name__}: {type(exc).__name__}")
            continue
        testing.validate_assignment(query, got)
        assert math.isfinite(got.objective_seconds)
        makespans[solver] = got.objective_seconds
    if len(makespans) == 2:
        event("both solved")
        assert makespans[testing.exact_milp] \
            <= makespans[testing.greedy_cover] * (1 + 1e-9)
