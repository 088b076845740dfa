"""Numerics of the shared linear model: gradients, local epochs, averaging."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedsel import model
from fedsel.experiments import (CANONICAL_K, canonical_population_spec,
                                canonical_selector_config)
from fedsel.simulation import TrainingSession
from fedsel.workload import generate_population
from loss_oracles import log_softmax, mean_loss, per_sample_losses


def reference_epoch(weights, features, labels, learning_rate, batch_size,
                    order):
    """One client's epoch, as the per-client loop ``model.local_epoch`` replaced."""
    n = labels.size
    w = weights.copy()
    losses = np.empty(n)
    batch_sq_norms: list[float] = []
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        fx, fy = features[idx], labels[idx]
        losses[idx] = per_sample_losses(w, fx, fy)
        step = learning_rate * model.mean_loss_gradient(w, fx, fy)
        w -= step
        batch_sq_norms.append(float(np.sum(step * step)))
    return w, losses, batch_sq_norms


def reference_local_epoch(weights, features, labels, sizes, learning_rate,
                          batch_size, starts, orders, norms=False):
    """``model.local_epoch`` built on the loop, one client after another; it
    returns the norms whether asked or not."""
    runs = [reference_epoch(weights, features[start:start + n],
                            labels[start:start + n], learning_rate, batch_size,
                            order)
            for start, n, order in zip(starts, sizes, orders)]
    return (np.stack([w for w, _, _ in runs]),
            np.concatenate([losses for _, losses, _ in runs]),
            [norms for _, _, norms in runs])


def random_problem(rng, n=40, classes=4, dim=6):
    features = rng.normal(size=(n, dim))
    labels = rng.integers(0, classes, size=n)
    weights = rng.normal(scale=0.5, size=(classes, dim + 1))
    return weights, features, labels


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(5):
        weights, features, labels = random_problem(rng)
        grad = model.mean_loss_gradient(weights, features, labels)
        eps = 1e-6
        fd = np.zeros_like(weights)
        for i in range(weights.shape[0]):
            for j in range(weights.shape[1]):
                up = weights.copy()
                down = weights.copy()
                up[i, j] += eps
                down[i, j] -= eps
                fd[i, j] = (mean_loss(up, features, labels)
                            - mean_loss(down, features, labels)) / (2 * eps)
        scale = max(np.abs(fd).max(), 1e-12)
        assert np.abs(grad - fd).max() / scale < 1e-5


def test_per_sample_losses_positive_and_match_mean():
    rng = np.random.default_rng(1)
    weights, features, labels = random_problem(rng)
    losses = per_sample_losses(weights, features, labels)
    assert np.all(losses > 0)
    assert mean_loss(weights, features, labels) == pytest.approx(
        float(losses.mean()))


@st.composite
def logit_arrays(draw):
    """Logits of any class count in 2..64 over a few leading shapes, with
    values drawn from a small pool (ties, both signed zeros) or from all
    finite floats (magnitudes up to the float maximum)."""
    lead = draw(st.sampled_from([(), (1,), (6,), (3, 4), (2, 1, 5)]))
    classes = draw(st.integers(2, 64))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(finite, min_size=1, max_size=3)) + [0.0, -0.0]
    return draw(hnp.arrays(np.float64, (*lead, classes),
                           elements=st.one_of(st.sampled_from(pool), finite)))


@settings(max_examples=300, deadline=None)
@given(logit_arrays())
def test_log_softmax_matches_numpy_form_bit_for_bit(logits):
    with np.errstate(all="ignore"):
        got, want = model._log_softmax(logits), log_softmax(logits)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_local_epoch_reduces_training_loss():
    rng = np.random.default_rng(2)
    for trial in range(5):
        weights, features, labels = random_problem(np.random.default_rng(trial))
        before = mean_loss(weights, features, labels)
        order = rng.permutation(labels.size)
        (new_w,), _, _ = model.local_epoch(weights, features, labels,
                                           [labels.size], learning_rate=0.05,
                                           batch_size=8, starts=[0],
                                           orders=[order])
        after = mean_loss(new_w, features, labels)
        assert after <= before * (1 + 1e-6)


def test_local_epoch_reports_batch_norms_and_losses():
    rng = np.random.default_rng(3)
    weights, features, labels = random_problem(rng, n=20)
    (new_w,), losses, (norms,) = model.local_epoch(
        weights, features, labels, [20], learning_rate=0.1, batch_size=8,
        starts=[0], orders=[np.random.default_rng(0).permutation(20)],
        norms=True)
    assert losses.shape == (20,)
    assert len(norms) == 3  # ceil(20 / 8)
    assert all(v >= 0 for v in norms)
    assert not np.array_equal(new_w, weights)


def test_local_epoch_deterministic_in_rng():
    rng_data = np.random.default_rng(4)
    weights, features, labels = random_problem(rng_data)
    n = labels.size
    a = model.local_epoch(weights, features, labels, [n], 0.05, 8, [0],
                          [np.random.default_rng(9).permutation(n)])
    b = model.local_epoch(weights, features, labels, [n], 0.05, 8, [0],
                          [np.random.default_rng(9).permutation(n)])
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def assert_close(actual, expected, rel=1e-12):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    assert float(np.abs(actual - expected).max(initial=0.0)) <= rel * scale


@st.composite
def ragged_groups(draw):
    """A group of 1-8 shards of 1 to 3 batches, whole or partial."""
    batch_size = draw(st.integers(1, 8))
    shard = st.one_of(st.integers(1, 3 * batch_size),
                      st.sampled_from([batch_size, 2 * batch_size, 3 * batch_size]))
    sizes = draw(st.lists(shard, min_size=1, max_size=8))
    return batch_size, sizes, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(ragged_groups())
def test_local_epoch_matches_the_per_client_loop(group):
    batch_size, sizes, seed = group
    rng = np.random.default_rng(seed)
    # The shards lie in a larger array, in shuffled order with gaps between.
    starts, end = [0] * len(sizes), 0
    for i in rng.permutation(len(sizes)).tolist():
        starts[i] = end + int(rng.integers(0, 3))
        end = starts[i] + sizes[i]
    weights, features, labels = random_problem(rng, n=end + 2)
    lr = float(rng.uniform(0.01, 0.5))
    orders = [np.random.default_rng([seed, i]).permutation(n)
              for i, n in enumerate(sizes)]

    got_w, got_losses, got_norms = model.local_epoch(
        weights, features, labels, sizes, lr, batch_size, starts, orders,
        norms=True)
    ref_w, ref_losses, ref_norms = reference_local_epoch(
        weights, features, labels, sizes, lr, batch_size, starts, orders)
    assert_close(got_w, ref_w)
    assert_close(got_losses, ref_losses)
    assert [len(n) for n in got_norms] == [-(-n // batch_size) for n in sizes]
    for got, ref in zip(got_norms, ref_norms):
        assert_close(got, ref)

    # Without the norms, the same weights and losses bit for bit, and no norms.
    off_w, off_losses, off_norms = model.local_epoch(
        weights, features, labels, sizes, lr, batch_size, starts, orders)
    assert off_norms is None
    assert np.array_equal(off_w.view(np.int64), got_w.view(np.int64))
    assert np.array_equal(off_losses.view(np.int64), got_losses.view(np.int64))


def _epoch_inputs(**changes):
    rng = np.random.default_rng(7)
    weights, features, labels = random_problem(rng, n=12)
    args = dict(weights=weights, features=features, labels=labels,
                sizes=[5, 7], learning_rate=0.1, batch_size=4, starts=[0, 5],
                orders=[np.random.default_rng(0).permutation(5),
                        np.random.default_rng(1).permutation(7)])
    args.update(changes)
    return args


def _order(*entries):
    return np.array(entries)


@pytest.mark.parametrize("changes", [
    dict(learning_rate=float("nan")),
    dict(learning_rate=float("inf")),
    dict(learning_rate=0.0),
    dict(learning_rate=-0.1),
    dict(batch_size=0),
    dict(batch_size=-3),
    dict(labels=np.zeros(11, dtype=int), sizes=[5, 6]),
    dict(sizes=[5, 6]),
    dict(sizes=[5, 8], orders=[_order(*range(5)), _order(*range(8))]),
    dict(sizes=[12, 0], starts=[0, 12], orders=[_order(*range(12)), _order()]),
    dict(sizes=[13, -1]),
    dict(sizes=[12], orders=[_order(*range(12))] * 2),
    dict(orders=[_order(*range(5))]),
    dict(labels=np.zeros(0, dtype=int), features=np.zeros((0, 6)), sizes=[],
         starts=[], orders=[]),
    dict(sizes=[5.0, 7.0]),
    dict(orders=[_order(*range(5)), _order(*range(6))]),
    dict(orders=[_order(*range(5)), _order(0, 1, 2, 3, 4, 5, 7)]),
    dict(orders=[_order(*range(5)), _order(0, 1, 2, 3, 4, 5, -1)]),
    dict(orders=[_order(*range(5)), _order(0, 1, 2, 3, 4, 5, 5)]),
    dict(orders=[_order(*range(5)), np.arange(7.0)]),
    dict(starts=[0, 6]),
    dict(starts=[-1, 5]),
    dict(starts=[0.0, 5.0]),
    dict(starts=[0]),
    dict(starts=[0, 5, 0]),
], ids=["nan_lr", "inf_lr", "zero_lr", "negative_lr", "zero_batch",
        "negative_batch", "rows_mismatch", "sizes_short", "sizes_long",
        "empty_shard", "negative_shard", "too_many_rngs", "too_few_rngs",
        "no_shards", "float_sizes", "order_wrong_length", "order_out_of_range",
        "order_negative", "order_repeats", "float_order", "rows_past_arrays",
        "negative_start", "float_starts", "too_few_starts", "too_many_starts"])
def test_local_epoch_rejects_bad_input(changes):
    with pytest.raises(ValueError):
        model.local_epoch(**_epoch_inputs(**changes))


def test_guided_trajectory_matches_the_per_client_loop(monkeypatch):
    world = generate_population(canonical_population_spec(0))

    def trajectory():
        session = TrainingSession(world, "guided", canonical_selector_config(),
                                  CANONICAL_K, seed=0)
        return [(r.completers, r.accuracy) for r in session.run_rounds(30)]

    batched = trajectory()
    monkeypatch.setattr(model, "local_epoch", reference_local_epoch)
    assert trajectory() == batched


def test_uniform_average_is_arithmetic_mean():
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(7, 3, 4))
    mean = np.einsum("i,ijk->jk", np.full(7, 1 / 7), stack)
    expected = stack.mean(axis=0)
    assert np.abs(mean - expected).max() <= 1e-9 * max(1.0, np.abs(expected).max())


def test_accuracy_and_predict_consistency():
    rng = np.random.default_rng(6)
    weights, features, labels = random_problem(rng, n=200)
    preds = model.predict(weights, features)
    assert model.accuracy(weights, features, labels) == pytest.approx(
        float((preds == labels).mean()))


def test_model_bytes_counts_weight_buffer():
    w = model.init_weights(10, 32)
    assert model.model_bytes(w) == 10 * 33 * 8
