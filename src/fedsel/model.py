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
                starts: Sequence[int], orders: Sequence[np.ndarray],
                norms: bool = False,
                ) -> tuple[np.ndarray, np.ndarray, list[list[float]] | None]:
    """One epoch of minibatch gradient descent for each of K clients, all
    starting from ``weights``.

    Client i's shard is rows ``starts[i]:starts[i] + sizes[i]`` of
    ``features`` and ``labels``, and ``orders[i]``, a permutation of
    ``range(sizes[i])``, is the order its epoch visits them in. Each client
    runs the epoch it would run alone; the K epochs advance together, one
    stacked step per batch index over the clients that still have a batch,
    which is a prefix once clients are sorted by batch count.

    Returns the (K, classes, features+1) stack of updated weights and the
    per-sample training losses observed as each minibatch was processed, for
    the K shards laid end to end in order. Under ``norms`` it also returns
    each client's squared update norm of every batch step (the alternative
    utility signal); otherwise None.
    """
    sizes, starts = np.asarray(sizes), np.asarray(starts)
    perm = _check_epoch(features, labels, sizes, learning_rate, batch_size,
                        starts, orders)
    offsets = np.cumsum(sizes) - sizes
    batches = -(-sizes // batch_size)
    by_batches = np.argsort(-batches, kind="stable")
    back = np.argsort(by_batches)
    sizes_sorted = sizes[by_batches]
    steps = int(batches.max())
    width = steps * batch_size

    # Position of every (lane, batch slot) in the K shards laid end to end; a
    # partial last batch is padded with the client's first sample and masked.
    pos = np.repeat(offsets[by_batches], width).reshape(sizes.size, width)
    spread = np.repeat(offsets, sizes)
    pos[np.repeat(back, sizes), np.arange(perm.size) - spread] = perm + spread
    # The live lanes' slots of every step, step after step, and their rows in
    # ``features``, gathered once.
    active = batches[by_batches] > np.arange(steps)[:, None]
    live_counts = active.sum(axis=1)
    pos = pos.reshape(sizes.size, steps, batch_size).transpose(1, 0, 2)[active]
    rows = pos + (starts - offsets)[by_batches][np.nonzero(active)[1], None]
    all_fx, all_fy = features.take(rows, axis=0), labels.take(rows)

    w = np.repeat(weights[None], sizes.size, axis=0)
    losses = np.empty(perm.size)
    sq_norms = np.empty((sizes.size, steps)) if norms else None
    slots = np.arange(batch_size)
    # Where each (lane, slot)'s class row starts in a step's flat log-probs.
    cells = np.arange(sizes.size * batch_size) * weights.shape[0]
    end = 0
    for s, live in enumerate(live_counts.tolist()):
        begin, end = end, end + live
        idx, fx, fy = pos[begin:end], all_fx[begin:end], all_fy[begin:end]
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
        if norms:
            sq_norms[:live, s] = (step * step).reshape(live, -1).sum(axis=1)

    if not norms:
        return w[back], losses, None
    return w[back], losses, [row[:n].tolist()
                             for row, n in zip(sq_norms[back], batches)]


def _check_epoch(features, labels, sizes, learning_rate, batch_size, starts,
                 orders) -> np.ndarray:
    """Raise ValueError on a malformed epoch; return the orders laid end to
    end."""
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
    if starts.shape != sizes.shape or len(orders) != sizes.size:
        raise ValueError("need one start and one order per shard")
    if starts.dtype.kind not in "iu" or np.any(starts < 0) \
            or np.any(starts + sizes > len(labels)):
        raise ValueError("every shard's rows must lie within the arrays")
    if any(len(order) != n for order, n in zip(orders, sizes.tolist())):
        raise ValueError("every order must have its shard's size")
    perm = np.concatenate(orders)
    if perm.ndim != 1 or perm.dtype.kind not in "iu":
        raise ValueError("orders must be sequences of integers")
    # Each entry within its own shard, then every sample visited once.
    offsets = np.cumsum(sizes) - sizes
    seen = np.zeros(perm.size, dtype=bool)
    if (np.all(np.minimum.reduceat(perm, offsets) >= 0)
            and np.all(np.maximum.reduceat(perm, offsets) < sizes)):
        seen[perm + np.repeat(offsets, sizes)] = True
    if not seen.all():
        raise ValueError("every order must be a permutation of its "
                         "shard's rows")
    return perm
