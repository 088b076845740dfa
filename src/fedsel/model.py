"""Multinomial logistic regression used as the shared federated model.

Weights are a single (classes, features+1) matrix with the bias in the last
column, which keeps model averaging and byte-size accounting trivial.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def init_weights(class_count: int, feature_dim: int) -> np.ndarray:
    if class_count < 2 or feature_dim < 1:
        raise ValueError("need at least 2 classes and 1 feature")
    return np.zeros((class_count, feature_dim + 1))


def model_bytes(weights: np.ndarray) -> int:
    return int(weights.size * weights.itemsize)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # The row max as a running maximum over the class columns: numpy's max
    # over a short last axis is several times slower, and a max is exact in
    # any order. Where tied zeros of both signs make the two forms pick a
    # different zero, the row's log-sum is positive, so the output is equal.
    top = logits[..., 0].copy()
    for j in range(1, logits.shape[-1]):
        np.maximum(top, logits[..., j], out=top)
    shifted = logits - top[..., None]
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _logits(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    return features @ weights[:, :-1].T + weights[:, -1]


def mean_loss_gradient(weights: np.ndarray, features: np.ndarray,
                       labels: np.ndarray) -> np.ndarray:
    """Analytic gradient of the mean cross-entropy, same shape as weights."""
    n = labels.size
    probs = np.exp(_log_softmax(_logits(weights, features)))
    probs[np.arange(n), labels] -= 1.0
    grad = np.empty_like(weights)
    grad[:, :-1] = probs.T @ features / n
    grad[:, -1] = probs.mean(axis=0)
    return grad


def predict(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    return _logits(weights, features).argmax(axis=1)


def accuracy(weights: np.ndarray, features: np.ndarray,
             labels: np.ndarray) -> float:
    return float((predict(weights, features) == labels).mean())


def local_epoch(weights: np.ndarray, features: np.ndarray, labels: np.ndarray,
                sizes: Sequence[int], learning_rate: float, batch_size: int,
                rngs: Sequence[np.random.Generator],
                ) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """One epoch of minibatch gradient descent for each of K clients, all
    starting from ``weights``.

    ``features`` and ``labels`` are the K clients' shards concatenated in
    order, ``sizes`` their row counts, and ``rngs[i]`` permutes client i's
    shard. Each client runs the epoch it would run alone; the K epochs advance
    together, one stacked step per batch index over the clients that still
    have a batch, which is a prefix once clients are sorted by batch count.

    Returns the (K, classes, features+1) stack of updated weights, the
    per-sample training losses observed as each minibatch was processed
    (aligned with ``labels``), and each client's squared update norm of every
    batch step (the alternative utility signal).
    """
    sizes = np.asarray(sizes)
    _check_epoch(features, labels, sizes, learning_rate, batch_size, rngs)
    offsets = np.cumsum(sizes) - sizes
    batches = -(-sizes // batch_size)
    by_batches = np.argsort(-batches, kind="stable")
    sizes_sorted = sizes[by_batches]
    steps = int(batches.max())

    # Row of every (client, batch slot) in the concatenated shards; a partial
    # last batch is padded with the client's first row and masked.
    rows = np.empty((sizes.size, steps * batch_size), dtype=np.intp)
    for lane, i in enumerate(by_batches):
        rows[lane, :sizes[i]] = rngs[i].permutation(sizes[i]) + offsets[i]
        rows[lane, sizes[i]:] = offsets[i]
    live_counts = (batches[:, None] > np.arange(steps)).sum(axis=0)

    w = np.repeat(weights[None], sizes.size, axis=0)
    losses = np.empty(labels.size)
    sq_norms = np.empty((sizes.size, steps))
    slots = np.arange(batch_size)
    # Where each (lane, slot)'s class row starts in a step's flat log-probs.
    cells = np.arange(sizes.size * batch_size) * weights.shape[0]
    for s, live in enumerate(live_counts):
        idx = rows[:live, s * batch_size:(s + 1) * batch_size]
        # take copies the same rows as fancy indexing, faster.
        fx, fy = features.take(idx, axis=0), labels.take(idx)
        wl = w[:live]
        log_probs = _log_softmax(fx @ wl[:, :, :-1].transpose(0, 2, 1)
                                 + wl[:, None, :, -1])
        flat = log_probs.reshape(-1)   # a view: _log_softmax returns a new array
        at = cells[:fy.size] + fy.reshape(-1)
        picked = -flat[at].reshape(fy.shape)
        probs = np.exp(log_probs, out=log_probs)
        flat[at] -= 1.0
        counts = np.minimum(sizes_sorted[:live] - s * batch_size,
                            batch_size)[:, None]
        mask = slots < counts
        losses[idx[mask]] = picked[mask]
        probs[~mask] = 0.0
        step = np.empty_like(wl)
        step[:, :, :-1] = probs.transpose(0, 2, 1) @ fx / counts[:, :, None]
        step[:, :, -1] = probs.sum(axis=1) / counts
        step *= learning_rate
        wl -= step
        sq_norms[:live, s] = (step * step).reshape(live, -1).sum(axis=1)

    back = np.argsort(by_batches)
    norms = sq_norms[back]
    return w[back], losses, [row[:n].tolist() for row, n in zip(norms, batches)]


def _check_epoch(features, labels, sizes, learning_rate, batch_size, rngs):
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError("learning_rate must be finite and > 0")
    if not isinstance(batch_size, (int, np.integer)) or batch_size < 1:
        raise ValueError("batch_size must be an integer >= 1")
    if len(features) != len(labels):
        raise ValueError("features and labels must have the same number of rows")
    if sizes.ndim != 1 or sizes.size == 0 or sizes.dtype.kind not in "iu":
        raise ValueError("sizes must be a non-empty sequence of integers")
    if np.any(sizes < 1):
        raise ValueError("every shard needs at least one sample")
    if int(sizes.sum()) != len(labels):
        raise ValueError("sizes must sum to the number of samples")
    if len(rngs) != sizes.size:
        raise ValueError("need one rng per shard")
