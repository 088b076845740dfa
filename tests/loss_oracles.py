"""Loss oracles of the shared model, for the tests.

The program trains through ``model.local_epoch`` and never asks for a loss on
its own; the tests use these to check gradients and training progress, and
``log_softmax`` to check the model's own.
"""

from __future__ import annotations

import numpy as np

from fedsel import model


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis in numpy's own reductions; the oracle
    for ``model._log_softmax``, which takes the row max column by column."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def per_sample_losses(weights: np.ndarray, features: np.ndarray,
                      labels: np.ndarray) -> np.ndarray:
    """Cross-entropy of each sample under the current weights."""
    log_probs = log_softmax(model._logits(weights, features))
    return -log_probs[np.arange(labels.size), labels]


def mean_loss(weights: np.ndarray, features: np.ndarray,
              labels: np.ndarray) -> float:
    return float(per_sample_losses(weights, features, labels).mean())
