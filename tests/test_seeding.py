"""Bulk-seeded permutations against one ``default_rng`` per row."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsel import seeding


@st.composite
def seeded_rows(draw):
    """A seed anywhere in [0, 2**64), so seeds from 2**32 on run the pool's
    extra mixing loop, a round, rows that include row 0, and a size of 1 to
    400 for each row."""
    seed = draw(st.integers(0, 2**64 - 1))
    round_index = draw(st.integers(0, 10**6))
    rows = [0] + draw(st.lists(st.integers(0, 2**32 - 1), max_size=6))
    sizes = draw(st.lists(st.integers(1, 400), min_size=len(rows),
                          max_size=len(rows)))
    return seed, round_index, rows, sizes


@settings(max_examples=200, deadline=None)
@given(seeded_rows())
def test_permutations_equal_default_rng_draw_for_draw(case):
    seed, round_index, rows, sizes = case
    got = seeding.permutations([seed, round_index, 5], np.array(rows), sizes)
    assert len(got) == len(rows)
    for row, n, order in zip(rows, sizes, got):
        want = np.random.default_rng([seed, round_index, 5, row]) \
            .permutation(n)
        assert order.dtype == want.dtype
        assert np.array_equal(order, want)


def test_permutations_of_no_rows():
    assert seeding.permutations([1, 2, 5], np.array([], np.intp), []) == []


@pytest.mark.parametrize("prefix, rows, sizes", [
    ([-1, 2, 5], [0], [3]),
    ([1, 2, 5], [-1], [3]),
    ([1, 2, 5], [2**32], [3]),
    ([1, 2, 5], [0.0], [3]),
    ([1, 2, 5], [0, 1], [3]),
    ([1, 2, 5], [[0]], [3]),
], ids=["negative_seed", "negative_row", "row_past_one_word", "float_row",
        "sizes_short", "rows_2d"])
def test_permutations_reject_bad_entropy(prefix, rows, sizes):
    with pytest.raises(ValueError):
        seeding.permutations(prefix, np.array(rows), sizes)
