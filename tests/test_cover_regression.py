"""Cover-solver regression tests: pinned golden digests and solver properties.

The golden digests fold every cell of each assignment plus
``repr(objective_seconds)``, so any change to the flow network, the probe
sequence or the exact threshold search that moves a single sample or the
last bit of a makespan shows up here. They cover the makespan search of
``min_makespan_assignment`` on small and large client subsets, and the exact
solver.

The flow network and the transfer times are also checked against the
per-edge and per-client loops they replaced, greedy's phase 1 against the
lazy heap and the full rescan it replaced, the makespan search's cut-row
floor against the flow-only search it replaced, the threshold search against
the two-branch search it replaced and against listing every completion time,
the exact solver against the branch-and-bound it replaced, and the cut rows
of its covering test against the flow feasibility check. The solvers'
invariants are property-tested on small random queries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from deadline import deadline
from fedsel import testing
from fedsel.cli import _random_query
from fedsel.errors import BudgetExceededError, FedselError, InfeasibleQueryError


def fold(digest, assignment: testing.Assignment) -> None:
    for cid in sorted(assignment.samples):
        digest.update(f"{cid}={assignment.samples[cid]};".encode())
    digest.update(f"|{assignment.objective_seconds!r}\n".encode())


def greedy_digest(shape: tuple[int, int], seeds: tuple[int, ...]) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        fold(digest, testing.greedy_cover(_random_query(*shape, seed)))
    return digest.hexdigest()


def exact_digest(shape: tuple[int, int], seeds: tuple[int, ...]) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        query = _random_query(*shape, seed)
        # Budget at greedy's participant count, so the budget binds.
        query = dataclasses.replace(
            query, budget=testing.greedy_cover(query).participant_count)
        fold(digest, testing.exact_milp(query))
    return digest.hexdigest()


# The case ids name the two paths of the makespan search these digests were
# first pinned on: the picked subsets of the 1000 x 30 instances hold about
# 116k samples, above its 50k switch to a continuum bisection, and the 200 x 10
# subsets stay below it. One search now serves both, with the same digests.
GOLDEN = {
    "greedy_continuum": (greedy_digest, (1000, 30), (1, 2),
                         "b8a0cc4ff6e2fd284f4034b6d90758cb05852d0bff93ac7a896d227a118e0234"),
    "greedy_discrete": (greedy_digest, (200, 10), (1, 2, 3),
                        "c63937523a83ec56e30ac053c71dce360eec73b128026f55f9cd2d389790c7f6"),
    "exact": (exact_digest, (8, 3), (1, 2, 3),
              "3ef3751a2471c2594176a6c41b565b3bcd68781bb434d67025f987d3df9facdd"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_cover_digest(case):
    build, shape, seeds, expected = GOLDEN[case]
    assert build(shape, seeds) == expected


# -- flow network against the loop reference ----------------------------------


def loop_flow_graph(caps_sub, totals, preference) -> csr_matrix:
    """One (row, col, val) triple per positive capacity, built edge by edge."""
    n, i = caps_sub.shape
    src, sink = 0, 1 + n + i
    rows, cols, vals = [], [], []
    for c in range(n):
        if totals[c] > 0:
            rows.append(src)
            cols.append(1 + c)
            vals.append(int(totals[c]))
    for c, k in zip(*np.nonzero(caps_sub)):
        rows.append(1 + int(c))
        cols.append(1 + n + int(k))
        vals.append(int(caps_sub[c, k]))
    for k in range(i):
        if preference[k] > 0:
            rows.append(1 + n + k)
            cols.append(sink)
            vals.append(int(preference[k]))
    return csr_matrix((np.asarray(vals, dtype=np.int32), (rows, cols)),
                      shape=(sink + 1, sink + 1))


def loop_transfer_times(query, subset) -> list[float]:
    out = []
    for idx in subset:
        size, b = query.transfer_sizes[idx], query.bandwidths[idx]
        out.append(0.0 if size == 0 else (size / b if b > 0 else math.inf))
    return out


@st.composite
def flow_inputs(draw):
    n = draw(st.integers(0, 6))
    i = draw(st.integers(1, 4))
    caps = np.array(draw(st.lists(st.integers(0, 9), min_size=n * i,
                                  max_size=n * i)),
                    dtype=np.int64).reshape(n, i)
    totals = np.array(draw(st.lists(st.integers(0, 30), min_size=n,
                                    max_size=n)), dtype=np.int64)
    preference = np.array(draw(st.lists(st.integers(0, 20), min_size=i,
                                        max_size=i)), dtype=np.int64)
    return caps, totals, preference


@settings(max_examples=200, deadline=None)
@given(flow_inputs())
def test_flow_graph_matches_loop_reference(inputs):
    caps, totals, preference = inputs
    got = testing._flow_graph(caps, totals, preference)
    want = loop_flow_graph(caps, totals, preference)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    n, i = caps.shape
    demand = int(preference.sum())
    assign = testing._feasible_flow(caps, totals, preference)
    if demand == 0:
        assert np.array_equal(assign, np.zeros((n, i), dtype=np.int64))
        return
    result = maximum_flow(want, 0, 1 + n + i)
    if result.flow_value < demand:
        assert assign is None
        return
    dense = result.flow.toarray()
    assert np.array_equal(assign, np.maximum(dense[1:1 + n, 1 + n:1 + n + i], 0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 1e3, 2.5e6]),
                          st.sampled_from([0.0, 7.0, 1e5])), min_size=1,
                max_size=6))
def test_transfer_times_match_loop_reference(rows):
    n = len(rows)
    query = testing.DistributionQuery(
        client_ids=tuple(f"c{j}" for j in range(n)),
        capacities=np.ones((n, 1), dtype=np.int64), preference=[1], budget=n,
        speeds=np.ones(n), bandwidths=[b for _, b in rows],
        transfer_sizes=[size for size, _ in rows])
    subset = list(range(n))[::-1]
    assert testing._transfer_times(query, subset).tolist() \
        == loop_transfer_times(query, subset)


# -- overflow guard -----------------------------------------------------------


def one_category_query(caps, preference) -> testing.DistributionQuery:
    n = len(caps)
    return testing.DistributionQuery(
        client_ids=tuple(f"c{j}" for j in range(n)),
        capacities=np.asarray(caps, dtype=np.int64)[:, None],
        preference=[preference], budget=n, speeds=np.full(n, 10.0),
        bandwidths=np.full(n, 1e6), transfer_sizes=np.full(n, 1e6))


def test_capacity_beyond_int32_is_used_as_its_demand():
    query = one_category_query([2 ** 31], 5)
    for solver in (testing.greedy_cover, testing.exact_milp):
        assignment = solver(query)
        assert assignment.samples == {"c0": (5,)}
        assert assignment.objective_seconds == 5 / 10.0 + 1.0
    assert query.capacities.tolist() == [[2 ** 31]]  # kept as given


@pytest.mark.parametrize("preference", [
    [2 ** 31],
    [2 ** 31 - 1, 1],
    # Bounding only the sum would pass this: it wraps to 1 in int64.
    [2 ** 63 - 1, 2 ** 63 - 1, 3],
], ids=["entry", "total", "wrapping_total"])
def test_preference_total_beyond_int32_is_rejected(preference):
    n = len(preference)
    with pytest.raises(ValueError, match="preference must be"):
        testing.DistributionQuery(
            client_ids=("c0",), capacities=np.full((1, n), 2 ** 31 - 1),
            preference=preference, budget=1, speeds=[10.0], bandwidths=[1e6],
            transfer_sizes=[1e6])


def test_flow_solver_accepts_the_largest_int32_count():
    assignment = testing.greedy_cover(one_category_query([2 ** 31 - 1], 5))
    assert assignment.samples == {"c0": (5,)}
    assert assignment.objective_seconds == 5 / 10.0 + 1.0


# -- solver properties --------------------------------------------------------


@st.composite
def small_queries(draw):
    n = draw(st.integers(1, 6))
    i = draw(st.integers(1, 3))
    caps = np.array(draw(st.lists(st.integers(0, 6), min_size=n * i,
                                  max_size=n * i)),
                    dtype=np.int64).reshape(n, i)
    totals = caps.sum(axis=0)
    preference = np.array([draw(st.integers(0, int(t))) for t in totals],
                          dtype=np.int64)
    if preference.sum() == 0:
        preference[int(np.argmax(totals))] = 1
    positive = st.floats(0.5, 50.0)
    return testing.DistributionQuery(
        client_ids=tuple(f"c{j}" for j in range(n)),
        capacities=caps, preference=preference,
        budget=draw(st.integers(1, n)),
        speeds=draw(st.lists(positive, min_size=n, max_size=n)),
        bandwidths=draw(st.lists(st.floats(1e4, 1e7), min_size=n, max_size=n)),
        transfer_sizes=draw(st.lists(st.floats(0.0, 1e6), min_size=n,
                                     max_size=n)))


@settings(max_examples=60, deadline=None)
@given(small_queries())
def test_exact_is_valid_and_never_worse_than_greedy(query):
    try:
        greedy = testing.greedy_cover(query)
    except InfeasibleQueryError:
        with pytest.raises(InfeasibleQueryError):
            testing.exact_milp(query)
        return
    except BudgetExceededError:
        greedy = None
    try:
        exact = testing.exact_milp(query)
    except InfeasibleQueryError:
        # Only a budget can make a coverable query infeasible, and then
        # greedy's cover must have broken it too.
        assert greedy is None
        return
    testing.validate_assignment(query, exact)
    if greedy is not None:
        testing.validate_assignment(query, greedy)
        assert exact.objective_seconds \
            <= greedy.objective_seconds * (1 + 1e-9)


def test_greedy_budget_counts_assigned_clients_not_idle_picks():
    # Phase 1 picks four clients here, and phase 2 leaves one of them idle.
    query = _random_query(8, 3, 2126329534)
    caps, totals = testing._effective_capacities(query)
    assert len(testing._greedy_picks(caps, totals, query.preference,
                                     query.client_ids)) == 4
    free = testing.greedy_cover(query)
    assert free.participant_count == 3
    assert_same_assignment(
        testing.greedy_cover(dataclasses.replace(query, budget=3)), free)
    with pytest.raises(BudgetExceededError) as exc:
        testing.greedy_cover(dataclasses.replace(query, budget=2))
    assert exc.value.required == 3


@settings(max_examples=200, deadline=None)
@given(small_queries())
def test_greedy_at_its_own_participant_count_keeps_its_cover(query):
    try:
        free = testing.greedy_cover(
            dataclasses.replace(query, budget=query.n_clients))
    except InfeasibleQueryError:
        return
    assert_same_assignment(testing.greedy_cover(
        dataclasses.replace(query, budget=free.participant_count)), free)
    if free.participant_count > query.budget:
        with pytest.raises(BudgetExceededError) as exc:
            testing.greedy_cover(query)
        assert exc.value.required == free.participant_count
    else:
        assert_same_assignment(testing.greedy_cover(query), free)


@st.composite
def raised_queries(draw):
    """A small query, and the same query with every cell at or above its
    category's preference raised to a count up to 2^63 - 1."""
    query = draw(small_queries())
    caps = query.capacities.copy()
    for n, i in zip(*np.nonzero(caps >= query.preference)):
        caps[n, i] = draw(st.integers(int(query.preference[i]), 2 ** 63 - 1))
    return query, dataclasses.replace(query, capacities=caps)


def solve_or_error(solver, query):
    try:
        return solver(query)
    except FedselError as exc:
        return exc


@settings(max_examples=150, deadline=None)
@given(raised_queries())
def test_cells_above_their_demand_act_as_the_demand(case):
    query, raised = case
    for solver in (testing.greedy_cover, testing.exact_milp):
        want = solve_or_error(solver, query)
        got = solve_or_error(solver, raised)
        if isinstance(want, FedselError):
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            assert_same_assignment(got, want)


# -- greedy phase 1 against the lazy and full-rescan references ---------------


def reference_greedy_picks(caps, preference, client_ids) -> list[int]:
    """The phase 1 this module used to ship: every pick rescans all clients."""
    remaining = preference.copy()
    picked: list[int] = []
    picked_mask = np.zeros(len(client_ids), dtype=bool)
    order = sorted(range(len(client_ids)), key=lambda i: client_ids[i])
    id_rank = np.empty(len(client_ids), dtype=np.int64)
    id_rank[order] = np.arange(len(client_ids))
    while remaining.sum() > 0:
        contrib = np.minimum(caps, remaining[None, :]).sum(axis=1)
        contrib[picked_mask] = -1
        top = contrib.max()
        if top <= 0:
            short = {int(i): int(remaining[i])
                     for i in np.flatnonzero(remaining > 0)}
            raise InfeasibleQueryError(short)
        ties = np.flatnonzero(contrib == top)
        best = int(ties[np.argmin(id_rank[ties])])  # client-id order
        picked.append(best)
        picked_mask[best] = True
        remaining = remaining - np.minimum(caps[best], remaining)
    return picked


def lazy_greedy_picks(caps, preference, client_ids) -> list[int]:
    """The lazy phase 1 (Minoux, 1978) this module shipped before the bulk
    head: one heap pop and one fresh contribution at a time."""
    remaining = preference.copy()
    left = int(remaining.sum())
    size = len(client_ids)
    order = sorted(range(size), key=client_ids.__getitem__)
    contrib = np.minimum(caps, remaining).sum(axis=1).tolist()
    heap = [-contrib[row] * size + rank for rank, row in enumerate(order)
            if contrib[row] > 0]
    heapq.heapify(heap)
    picked: list[int] = []
    while left > 0:
        if not heap:
            raise InfeasibleQueryError({int(i): int(remaining[i])
                                        for i in np.flatnonzero(remaining > 0)})
        rank = heapq.heappop(heap) % size
        row = order[rank]
        gain = np.minimum(caps[row], remaining)
        filled = int(gain.sum())
        if filled == 0:
            continue
        key = -filled * size + rank
        if heap and key > heap[0]:
            heapq.heappush(heap, key)
            continue
        picked.append(row)
        remaining -= gain
        left -= filled
    return picked


BOTH_REFERENCES = (reference_greedy_picks, lazy_greedy_picks)


def assert_picks_match(references, caps, preference, ids) -> None:
    """``_greedy_picks`` makes each reference's picks, or raises its
    shortfalls. It takes the capacities clipped to the preference, as
    ``_effective_capacities`` gives them; the references clip through
    ``min(cap, remaining)``."""
    clipped = np.minimum(caps, preference)
    for reference in references:
        try:
            want = reference(caps, preference, ids)
        except InfeasibleQueryError as exc:
            with pytest.raises(InfeasibleQueryError) as got:
                testing._greedy_picks(clipped, clipped.sum(axis=1),
                                      preference, ids)
            assert got.value.shortfalls == exc.shortfalls
        else:
            assert testing._greedy_picks(clipped, clipped.sum(axis=1),
                                         preference, ids) == want


@st.composite
def pick_inputs(draw):
    """Capacities with many equal contributions, ids out of row order, and a
    preference that may exceed what the clients hold."""
    n = draw(st.integers(1, 12))
    i = draw(st.integers(1, 4))
    caps = np.array(draw(st.lists(st.integers(0, 3), min_size=n * i,
                                  max_size=n * i)),
                    dtype=np.int64).reshape(n, i)
    preference = np.array(draw(st.lists(st.integers(0, 12), min_size=i,
                                        max_size=i)), dtype=np.int64)
    ids = draw(st.permutations([f"c{j:02d}" for j in range(n)]))
    return caps, preference, tuple(ids)


@settings(max_examples=300, deadline=None)
@given(pick_inputs())
def test_lazy_greedy_picks_match_full_rescan(inputs):
    assert_picks_match(BOTH_REFERENCES, *inputs)


@pytest.mark.parametrize("shape, seed", [((1000, 30), 1), ((200, 10), 3)])
def test_lazy_greedy_picks_match_full_rescan_on_random_queries(shape, seed):
    query = _random_query(*shape, seed)
    caps = testing._effective_capacities(query)[0]
    assert_picks_match(BOTH_REFERENCES, caps, query.preference,
                       query.client_ids)


@st.composite
def bulk_head_inputs(draw, clients: tuple[int, int],
                     categories: tuple[int, int]):
    """Instances with long bulk heads and their ends: demand far above the
    caps (or beyond the totals), categories with no demand, categories with
    a demand of 1-3 that a few clients hold and so a pick in the middle of
    the head first touches, many tied contributions, ids out of row order."""
    n = draw(st.integers(*clients))
    i = draw(st.integers(*categories))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    caps = rng.integers(0, draw(st.integers(1, 20)) + 1, size=(n, i))
    if draw(st.booleans()):
        caps[rng.random((n, i)) < draw(st.floats(0.0, 0.9))] = 0
    share = draw(st.floats(0.05, 1.1))
    preference = np.ceil(caps.sum(axis=0) * share).astype(np.int64)
    for k in draw(st.lists(st.integers(0, i - 1), max_size=3)):
        caps[:, k] = 0
        holders = rng.choice(n, size=min(n, draw(st.integers(1, 3))),
                             replace=False)
        caps[holders, k] = rng.integers(1, 4, size=holders.size)
        preference[k] = draw(st.integers(1, 3))
    preference[draw(st.lists(st.integers(0, i - 1), max_size=i))] = 0
    if preference.sum() == 0:
        preference[0] = 1
    ids = tuple(f"c{j:05d}" for j in rng.permutation(n))
    return caps, preference, ids


@settings(max_examples=200, deadline=None)
@given(bulk_head_inputs(clients=(1, 300), categories=(1, 12)))
def test_greedy_picks_match_both_references_on_long_heads(inputs):
    assert_picks_match(BOTH_REFERENCES, *inputs)


@settings(max_examples=12, deadline=None)
@given(bulk_head_inputs(clients=(2500, 4000), categories=(25, 30)))
def test_greedy_picks_match_lazy_reference_past_a_block(inputs):
    # Tails of more than ``_BLOCK_CELLS`` cells start on the heap.
    assert_picks_match((lazy_greedy_picks,), *inputs)


def test_bulk_head_spans_blocks_and_takes_most_picks(monkeypatch):
    heads = []
    tail = testing._tail_picks

    def recording(caps, remaining, order, heap, picked):
        heads.append(len(picked))
        return tail(caps, remaining, order, heap, picked)

    monkeypatch.setattr(testing, "_tail_picks", recording)
    query = _random_query(10_000, 30, 4)
    caps, totals = testing._effective_capacities(query)
    picks = testing._greedy_picks(caps, totals, query.preference,
                                  query.client_ids)
    assert heads[0] >= 0.9 * len(picks)
    assert heads[0] > testing._BLOCK_CELLS // 30  # fills carried across blocks
    assert picks == lazy_greedy_picks(caps, query.preference, query.client_ids)


def test_effective_capacities_of_a_subset_are_those_rows():
    n = 6
    query = testing.DistributionQuery(
        client_ids=tuple(f"c{j}" for j in range(n)),
        capacities=np.arange(2 * n).reshape(n, 2), preference=[11, 11],
        budget=n, speeds=[1.0, 0.0, 1.0, 1.0, 1.0, 1.0],
        bandwidths=[1e6, 1e6, 0.0, 0.0, 1e6, 1e6],
        transfer_sizes=[1e6, 1e6, 1e6, 0.0, 1e6, 1e6])
    caps, totals = testing._effective_capacities(query)
    assert caps[:, 0].tolist() == [0, 0, 0, 6, 8, 10]
    assert totals.tolist() == caps.sum(axis=1).tolist()
    for subset in ([], [4], [5, 1, 2], [3, 0]):
        got, got_totals = testing._effective_capacities(query, subset)
        assert got.shape == (len(subset), 2)
        assert got.tolist() == caps[subset].tolist()
        assert got_totals.tolist() == totals[subset].tolist()
    usable = dataclasses.replace(query, speeds=np.ones(n),
                                 bandwidths=np.full(n, 1e6))
    assert np.shares_memory(testing._effective_capacities(usable)[0],
                            usable.capacities)
    # Cells above their category's preference are clipped to it; the query
    # keeps its own counts.
    clipped = dataclasses.replace(query, preference=[4, 5])
    assert testing._effective_capacities(clipped)[0].tolist() == [
        [0, 1], [0, 0], [0, 0], [4, 5], [4, 5], [4, 5]]
    assert testing._effective_capacities(clipped, [5, 0, 1])[0].tolist() == [
        [4, 5], [0, 1], [0, 0]]
    assert clipped.capacities.max() == 11


# -- threshold search against the two-branch reference ------------------------


def reference_threshold_search(probe, witness, hi, speeds, transfers, sizes):
    """The threshold search this module used to ship, with its size switch.

    Up to 50k samples in all, it bisects a sorted list of every completion
    time ``k / speed + transfer`` (k = 1..sizes) up to ``hi``; beyond, it
    bisects the continuum for at most 80 steps.
    """
    if int(sizes.sum()) <= 50_000:
        times = [np.arange(1, size + 1) / speed + transfer
                 for size, speed, transfer in zip(sizes, speeds, transfers)
                 if speed > 0 and math.isfinite(transfer)]
        points = sorted({t for t in np.concatenate(times).tolist()
                         if t <= hi + 1e-12})
        lo_i, hi_i = 0, len(points) - 1
        while lo_i < hi_i:
            mid_i = (lo_i + hi_i) // 2
            found = probe(points[mid_i])
            if found is not None:
                witness, hi_i = found, mid_i
            else:
                lo_i = mid_i + 1
        return witness
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        found = probe(mid)
        if found is not None:
            witness, hi = found, mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return witness


@st.composite
def search_cases(draw):
    """A small query and the search of one of the two solvers over it.

    Speeds, bandwidths and transfer sizes come from short lists, so clients
    share them and their completion times coincide; a zero speed, or a
    transfer over zero bandwidth (an infinite transfer time), makes a client
    unusable, and a zero capacity row gives it nothing to send.
    """
    n = draw(st.integers(1, 6))
    i = draw(st.integers(1, 3))
    caps = np.array(draw(st.lists(st.integers(0, 6), min_size=n * i,
                                  max_size=n * i)),
                    dtype=np.int64).reshape(n, i)
    # No cell passes this preference, so the totals drawn on are unclipped.
    query = testing.DistributionQuery(
        client_ids=tuple(f"c{j}" for j in range(n)),
        capacities=caps, preference=np.full(i, 6, dtype=np.int64), budget=n,
        speeds=draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 7.5]),
                             min_size=n, max_size=n)),
        bandwidths=draw(st.lists(st.sampled_from([0.0, 1.0, 4.0]),
                                 min_size=n, max_size=n)),
        transfer_sizes=draw(st.lists(st.sampled_from([0.0, 1.0, 3.0]),
                                     min_size=n, max_size=n)))
    totals = testing._effective_capacities(query)[0].sum(axis=0)
    assume(totals.sum() > 0)
    query.preference = np.array([draw(st.integers(0, int(t))) for t in totals],
                                dtype=np.int64)
    assume(query.preference.sum() > 0)
    return query, draw(st.sampled_from(["flow", "cover"]))


def search_inputs(query, solver):
    """Probe, witness, ``hi`` and the (speeds, transfers, sizes) of a search.

    Built as ``min_makespan_assignment`` (over all clients) or ``exact_milp``
    build them.
    """
    caps = testing._effective_capacities(query)[0]
    preference = query.preference
    speeds = query.speeds
    transfers = testing._transfer_times(query, range(query.n_clients))
    row_caps = caps.sum(axis=1)
    sizes = np.minimum(row_caps, int(preference.sum()))
    if solver == "flow":
        witness = testing._feasible_flow(caps, row_caps, preference)
        hi = testing._makespan(witness.sum(axis=1), speeds, transfers)
        return (lambda t: testing._feasible_flow(
            caps, testing._caps_at(t, speeds, transfers, row_caps), preference),
            witness, hi, (speeds, transfers, sizes))
    row_sums, need = testing._cut_rows(caps, preference)
    budget = query.n_clients
    witness = testing._cover_within(row_caps, row_sums, need, budget)
    hi = float(np.max(sizes[witness] / speeds[witness] + transfers[witness]))
    return (lambda t: testing._cover_within(
        testing._caps_at(t, speeds, transfers, row_caps), row_sums, need, budget),
        witness, hi, (speeds, transfers, sizes))


@settings(max_examples=300, deadline=None)
@given(search_cases())
def test_threshold_search_finds_smallest_listed_time(case):
    query, solver = case
    probe, witness, hi, arrays = search_inputs(query, solver)
    probed = []

    def recording(t):
        probed.append(t)
        return probe(t)

    got = testing._threshold_search(recording, witness, hi, *arrays)
    speeds, transfers, sizes = arrays
    listed = sorted({k / speed + transfer
                     for size, speed, transfer in zip(sizes, speeds, transfers)
                     if speed > 0 and math.isfinite(transfer)
                     for k in range(1, int(size) + 1)})
    assert hi in listed
    assert all(t in listed and t < hi for t in probed)
    assert len(probed) == len(set(probed))
    first = next(t for t in listed if t >= hi or probe(t) is not None)
    want = witness if first >= hi else probe(first)
    assert np.array_equal(got, want)
    assert np.array_equal(got, reference_threshold_search(probe, witness, hi,
                                                          *arrays))


@pytest.mark.parametrize("speed", [3.0, 7.0, 10.0, 13.0])
def test_caps_at_counts_k_at_a_clients_kth_time(speed):
    # With a transfer of 1e7 / 3 s, the floor of (time - transfer) * speed is
    # one short at some of these times (at 6, 8 and 12 of the first 40 for
    # speeds 7, 10 and 13): the subtraction and the product round down.
    speeds, transfers = np.array([speed]), np.array([1e7 / 3])
    for k in range(1, 41):
        t = k / speed + 1e7 / 3
        assert testing._caps_at(t, speeds, transfers, np.array([100]))[0] == k
        assert testing._caps_at(t, speeds, transfers, np.array([k - 1]))[0] == k - 1


def test_solvers_find_the_makespan_at_a_time_the_product_undercounts():
    # The optimum sends 3 samples from c0 and 3 from c1, which finishes at
    # c1's 3rd completion time; the floor there counts 2 for c1. Counting 2
    # made both solvers settle on c1's 4th time instead.
    query = testing.DistributionQuery(
        client_ids=("c0", "c1", "c2"), capacities=[[3], [4], [5]],
        preference=[11], budget=3, speeds=[13.0, 10.0, 10.0],
        bandwidths=[3.0, 3.0, 3.0], transfer_sizes=[1e7, 1e7, 0.0])
    optimum = 3 / 10.0 + 1e7 / 3
    for got in (testing.exact_milp(query),
                testing.min_makespan_assignment(query, [0, 1, 2])):
        testing.validate_assignment(query, got)
        assert got.objective_seconds == optimum
        assert got.samples == {"c0": (3,), "c1": (3,), "c2": (5,)}


def test_exact_solver_counts_no_sample_a_client_has_not_finished():
    # c2's 2nd sample is done 1.2e-11 s after 1.0 s. A count of
    # floor(slack * speed + 1e-9) gave it 2 samples at 1.0 s, so the exact
    # solver chose c2 alone and its assignment finished after the optimum.
    query = testing.DistributionQuery(
        client_ids=("c0", "c1", "c2"), capacities=[[0], [1], [2]],
        preference=[2], budget=2, speeds=[1.0, 1.0, 2.0],
        bandwidths=[1e4, 1e4, 1e4], transfer_sizes=[0.0, 0.0, 1.1920929e-07])
    assert testing._caps_at(1.0, query.speeds, testing._transfer_times(
        query, range(3)), np.array([0, 1, 2]))[2] == 1
    got = testing.exact_milp(query)
    assert got.objective_seconds == 1.0
    assert got.samples == {"c1": (1,), "c2": (1,)}


@pytest.mark.parametrize("need", range(1, 11))
def test_threshold_search_steps_past_times_that_rounding_hides(need):
    # With a transfer of 1e7 / 3 s, the floor of (time - transfer) * speed is
    # 2 at the client's 3rd completion time (and 7 at its 8th): the
    # subtraction and the product round down. The search must still count
    # such a time, step past it when it fails, and stop.
    speeds, transfers, sizes = np.array([10.0]), np.array([1e7 / 3]), np.array([10])
    calls = []

    def probe(t):
        calls.append(t)
        assert len(calls) <= 10, "threshold search does not terminate"
        return t if testing._caps_at(t, speeds, transfers, sizes)[0] >= need else None

    listed = [k / 10.0 + 1e7 / 3 for k in range(1, 11)]
    assert np.floor((listed[2] - 1e7 / 3) * 10.0) == 2
    first = next(t for t in listed if probe(t) is not None)
    assert first == listed[need - 1]
    calls.clear()
    got = testing._threshold_search(probe, "witness", listed[-1], speeds,
                                    transfers, sizes)
    assert got == (first if first < listed[-1] else "witness")
    assert len(calls) == len(set(calls))


def test_threshold_search_ends_where_a_clients_times_round_to_one_float():
    # With transfers of 1e18 and 1e17 s, each client's completion times
    # round to its transfer time, and the count there takes one of them: b's
    # first time above a failing probe at 1e17 was 1e17 again, and the search
    # probed it forever.
    speeds = np.array([10.0, 10.0])
    transfers, sizes = np.array([1e18, 1e17]), np.array([3, 2])
    assert 2 / 10.0 + 1e17 == 1e17
    assert testing._caps_at(1e17, speeds, transfers, sizes).tolist() == [0, 1]
    calls = []

    def probe(t):
        calls.append(t)
        assert len(calls) <= 10, "threshold search does not terminate"
        return t if testing._caps_at(t, speeds, transfers, sizes).sum() >= 4 \
            else None

    hi = float(np.max(sizes / speeds + transfers))
    assert hi == 1e18
    assert testing._threshold_search(probe, "witness", hi, speeds, transfers,
                                     sizes) == "witness"
    assert 1e17 < calls[-1] < hi and len(calls) == len(set(calls))


@pytest.mark.parametrize("solver", [testing.greedy_cover, testing.exact_milp])
def test_solvers_end_where_a_clients_times_round_to_one_float(solver):
    query = testing.DistributionQuery(
        client_ids=("a", "b"), capacities=[[3], [2]], preference=[4],
        budget=2, speeds=[10.0, 10.0], bandwidths=[1.0, 1.0],
        transfer_sizes=[1e18, 1e17])
    with deadline(20):
        got = solver(query)
    testing.validate_assignment(query, got)
    assert got.objective_seconds == 1e18


def test_caps_at_clips_counts_past_the_float_range():
    # (1e298 - 0) * 1e11 passes the float range. Cast to int64 before the
    # clip, that count became INT64_MIN and the client sent nothing.
    got = testing._caps_at(1e298, np.array([1e11, 1e-299]), np.zeros(2),
                           np.array([5, 1]))
    assert got.tolist() == [5, 0]


def test_exact_solver_counts_a_fast_client_at_a_late_makespan():
    # d finishes at 1e298 s and a at 1e299 s; b sends its 5 samples at once.
    # With b counted as sending nothing at 1e298 s, a + b won.
    query = testing.DistributionQuery(
        client_ids=("a", "b", "d"), capacities=[[1, 0], [0, 5], [1, 0]],
        preference=[1, 5], budget=2, speeds=[1e-299, 1e11, 1e-298],
        bandwidths=np.ones(3), transfer_sizes=np.zeros(3))
    got = testing.exact_milp(query)
    testing.validate_assignment(query, got)
    assert got.samples == {"b": (0, 5), "d": (1, 0)}
    assert got.objective_seconds == 1 / 1e-298


# a's transfer (1e308 bytes over 0.5 B/s) or its two samples (at 1e-310
# samples/s) take longer than the float range holds.
CANNOT_FINISH = {"transfer_overflows": {"speeds": [1.0, 1.0],
                                        "transfer_sizes": [1e308, 1.0]},
                 "subnormal_speed": {"speeds": [1e-310, 1.0],
                                     "transfer_sizes": [1.0, 1.0]}}


@pytest.mark.parametrize("case", sorted(CANNOT_FINISH))
def test_a_client_that_cannot_finish_is_not_drawn_on(case):
    query = testing.DistributionQuery(
        client_ids=("a", "b"), capacities=[[2], [1]], preference=[3],
        budget=2, bandwidths=[0.5, 1.0], **CANNOT_FINISH[case])
    assert testing._effective_capacities(query)[0].tolist() == [[0], [1]]
    for solver in (testing.greedy_cover, testing.exact_milp):
        with pytest.raises(InfeasibleQueryError) as info:
            solver(query)
        assert info.value.shortfalls == {0: 2}
    # Where a is not needed, both solvers finish with b alone.
    query.preference = np.array([1])
    for solver in (testing.greedy_cover, testing.exact_milp):
        got = solver(query)
        assert got.samples == {"b": (1,)}
        assert got.objective_seconds == 2.0


# -- makespan search: cut-row floor against the flow-only reference -----------


def reference_min_makespan(query, subset) -> testing.Assignment:
    """The makespan search this module used to ship: a flow probe at every
    step, from the first completion time up."""
    caps_sub = testing._effective_capacities(query)[0][subset]
    preference = query.preference
    speeds = query.speeds[subset]
    transfers = testing._transfer_times(query, subset)
    row_caps = caps_sub.sum(axis=1)
    testing._check_capacity(query, caps_sub)
    baseline = testing._feasible_flow(caps_sub, row_caps, preference)
    best_flow = testing._threshold_search(
        lambda t: testing._feasible_flow(
            caps_sub, testing._caps_at(t, speeds, transfers, row_caps),
            preference),
        baseline, testing._makespan(baseline.sum(axis=1), speeds, transfers),
        speeds, transfers, np.minimum(row_caps, int(preference.sum())))
    return testing._to_assignment(query, subset, best_flow, speeds, transfers)


def assert_same_assignment(got, want):
    assert got.samples == want.samples
    assert repr(got.objective_seconds) == repr(want.objective_seconds)


@st.composite
def floor_cases(draw):
    """A small query and a client subset that can meet its preference.

    As in :func:`search_cases`, a zero speed or a transfer over zero
    bandwidth (an infinite transfer time) makes a client unusable and a zero
    capacity row gives it nothing to send; up to four categories with small
    capacities let cuts over several categories bind below the floor.
    """
    n = draw(st.integers(1, 8))
    i = draw(st.integers(1, 4))
    caps = np.array(draw(st.lists(st.integers(0, 3), min_size=n * i,
                                  max_size=n * i)),
                    dtype=np.int64).reshape(n, i)
    # No cell passes this preference, so the totals drawn on are unclipped.
    query = testing.DistributionQuery(
        client_ids=tuple(f"c{j}" for j in range(n)),
        capacities=caps, preference=np.full(i, 3, dtype=np.int64), budget=n,
        speeds=draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 7.5]),
                             min_size=n, max_size=n)),
        bandwidths=draw(st.lists(st.sampled_from([0.0, 1.0, 4.0]),
                                 min_size=n, max_size=n)),
        transfer_sizes=draw(st.lists(st.sampled_from([0.0, 1.0, 3.0]),
                                     min_size=n, max_size=n)))
    subset = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    totals = testing._effective_capacities(query)[0][subset].sum(axis=0)
    assume(totals.sum() > 0)
    query.preference = np.array([draw(st.integers(0, int(t))) for t in totals],
                                dtype=np.int64)
    assume(query.preference.sum() > 0)
    return query, subset


@settings(max_examples=300, deadline=None)
@given(floor_cases())
def test_floor_search_matches_flow_only_reference(case):
    query, subset = case
    assert_same_assignment(testing.min_makespan_assignment(query, subset),
                           reference_min_makespan(query, subset))


def count_flow_probes(monkeypatch) -> list[int]:
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return maximum_flow(*args, **kwargs)

    monkeypatch.setattr(testing, "maximum_flow", counted)
    return calls


def test_floor_at_the_baseline_makespan_returns_the_baseline(monkeypatch):
    # The preference takes every sample, so no time before the baseline's
    # makespan sends enough in all: the floor is that makespan, and the
    # baseline flow (at row totals) is the answer without another probe.
    query = testing.DistributionQuery(
        client_ids=("a", "b", "c"), capacities=[[3, 1], [0, 4], [2, 2]],
        preference=[5, 7], budget=3, speeds=[2.0, 5.0, 1.0],
        bandwidths=[1e3, 1e3, 0.0], transfer_sizes=[10.0, 0.0, 0.0])
    want = reference_min_makespan(query, [0, 1, 2])
    probes = count_flow_probes(monkeypatch)
    got = testing.min_makespan_assignment(query, [0, 1, 2])
    assert probes[0] == 1
    assert_same_assignment(got, want)
    assert got.objective_seconds == 4.0  # c's 4th sample


def test_flow_search_goes_on_above_a_floor_the_flow_fails(monkeypatch):
    # At 1 s, a, b and d send one sample each: every category and the total
    # are met, so the floor is 1 s, but categories 0 and 1 need two samples
    # that only a (one so far) can send. The flow search goes on from there
    # and first succeeds at 2 s.
    query = testing.DistributionQuery(
        client_ids=("a", "b", "c", "d"),
        capacities=[[1, 1, 0], [0, 0, 1], [1, 1, 0], [0, 0, 1]],
        preference=[1, 1, 1], budget=4, speeds=[1.0, 1.0, 0.5, 1.0],
        bandwidths=np.ones(4), transfer_sizes=np.zeros(4))
    want = reference_min_makespan(query, [0, 1, 2, 3])
    lows = []
    search = testing._threshold_search

    def recording(*args, lo=0.0):
        lows.append(lo)
        return search(*args, lo=lo)

    monkeypatch.setattr(testing, "_threshold_search", recording)
    got = testing.min_makespan_assignment(query, [0, 1, 2, 3])
    assert lows == [0.0, 1.0]
    assert_same_assignment(got, want)
    assert got.objective_seconds == 2.0


@pytest.mark.parametrize("seed", range(5))
def test_greedy_cover_solves_one_flow(monkeypatch, seed):
    # The makespan search's upper end is the makespan at row totals, so no
    # flow is solved before the floor; the flow at the floor is the answer.
    query = _random_query(1000, 30, seed)
    probes = count_flow_probes(monkeypatch)
    testing.greedy_cover(query)
    assert probes[0] == 1


# -- exact solver against the branch-and-bound reference ----------------------


def reference_branch_and_bound(query: testing.DistributionQuery
                               ) -> testing.Assignment:
    """The exact solver this module used to ship: branch-and-bound over clients.

    Each node is bounded by the budget-free optimum over its still-allowed
    clients (a relaxation, since dropping clients never helps); when that
    relaxed solution already uses no more participants than the budget, the
    node is solved outright. Greedy's cover, when within the budget, seeds
    the incumbent. Exhaustion certifies optimality.
    """
    caps = testing._effective_capacities(query)[0]
    testing._check_capacity(query, caps)
    budget = min(query.budget, query.n_clients)
    order = sorted(range(query.n_clients),
                   key=lambda i: (-int(caps[i].sum()), query.client_ids[i]))
    best: dict[str, object] = {"value": math.inf, "assignment": None}
    try:
        seed_assign = testing.greedy_cover(query)
        best["value"] = seed_assign.objective_seconds
        best["assignment"] = seed_assign
    except BudgetExceededError:
        pass

    def capacity_ok(indices: list[int]) -> bool:
        if not indices:
            return bool(query.preference.sum() == 0)
        return bool(np.all(caps[indices].sum(axis=0) >= query.preference))

    def recurse(pos: int, included: list[int], relaxed=None) -> None:
        if len(included) > budget:
            return
        # An include child shares its parent's client set, and so its
        # relaxation.
        if relaxed is None:
            avail = included + order[pos:]
            if not capacity_ok(avail):
                return
            relaxed = testing.min_makespan_assignment(query, sorted(avail))
            if relaxed.objective_seconds >= best["value"]:
                return
            if relaxed.participant_count <= budget:
                best["value"] = relaxed.objective_seconds
                best["assignment"] = relaxed
                return
        if pos == len(order):
            return
        recurse(pos + 1, included + [order[pos]], relaxed)
        recurse(pos + 1, included)

    recurse(0, [])
    if best["assignment"] is None:
        raise InfeasibleQueryError(dict(enumerate(query.preference.tolist())))
    return best["assignment"]  # type: ignore[return-value]


@settings(max_examples=100, deadline=None)
@given(small_queries())
def test_exact_makespan_equals_branch_and_bound(query):
    try:
        want = reference_branch_and_bound(query)
    except InfeasibleQueryError:
        with pytest.raises(InfeasibleQueryError):
            testing.exact_milp(query)
        return
    got = testing.exact_milp(query)
    assert got.objective_seconds == want.objective_seconds
    assert got.participant_count <= query.budget


@st.composite
def cut_row_cases(draw):
    """A small query, a client subset and a completion time of one of them."""
    query = draw(small_queries())
    subset = sorted(draw(st.sets(st.integers(0, query.n_clients - 1),
                                 min_size=1)))
    caps_sub = testing._effective_capacities(query)[0][subset]
    speeds = query.speeds[subset]
    transfers = testing._transfer_times(query, subset)
    j = draw(st.integers(0, len(subset) - 1))
    makespan = draw(st.integers(0, 8)) / speeds[j] + transfers[j]
    totals = testing._caps_at(makespan, speeds, transfers, caps_sub.sum(axis=1))
    return caps_sub, totals, query.preference


def passes_cut_rows(caps_sub, totals, preference) -> bool:
    row_sums, need = testing._cut_rows(caps_sub, preference)
    return bool(np.all(np.minimum(totals[:, None], row_sums).sum(axis=0) >= need))


@settings(max_examples=300, deadline=None)
@given(cut_row_cases())
def test_cut_rows_agree_with_flow_feasibility(case):
    caps_sub, totals, preference = case
    assert passes_cut_rows(caps_sub, totals, preference) \
        == (testing._feasible_flow(caps_sub, totals, preference) is not None)


@settings(max_examples=200, deadline=None)
@given(cut_row_cases(), st.integers(1, 6))
def test_cover_search_matches_exhaustive_subsets(case, budget):
    caps_sub, totals, preference = case
    row_sums, need = testing._cut_rows(caps_sub, preference)
    found = testing._cover_within(totals, row_sums, need, budget)
    exists = any(passes_cut_rows(caps_sub[list(s)], totals[list(s)], preference)
                 for size in range(1, budget + 1)
                 for s in itertools.combinations(range(len(totals)), size))
    assert (found is not None) == exists
    if found is not None:
        assert len(set(found)) == len(found) <= budget
        assert passes_cut_rows(caps_sub[found], totals[found], preference)
