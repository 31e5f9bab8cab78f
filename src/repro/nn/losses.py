"""Losses with analytic gradients."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["softmax_cross_entropy"]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch; returns ``(loss, dlogits)``."""
    if logits.ndim != 2:
        raise ValueError(f"expected (batch, classes) logits, got {logits.shape}")
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError("labels must be a 1-D class-index array matching the batch")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -float(log_probs[np.arange(n), labels].mean())
    probs = np.exp(log_probs)
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n
