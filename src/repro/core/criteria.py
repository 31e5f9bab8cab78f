"""Pruning criteria -- orthogonal to the sparsity pattern (Sec. III-B note).

The paper evaluates the pattern families under multiple criteria
(Table II): magnitude, Wanda and SparseGPT.  Every criterion here reduces
to a *score matrix* that the pattern generators in
:mod:`repro.core.masks` / :mod:`repro.core.sparsify` consume, which is
exactly the orthogonality the paper claims.

* **Magnitude** [17], [19]: ``|W|``.
* **Wanda** [59]: ``|W| * ||X_j||_2`` -- weight magnitude scaled by the L2
  norm of the corresponding input activation channel over a calibration
  set.
* **SparseGPT** [12]: the OBS saliency ``w^2 / [H^-1]_jj`` with
  ``H = X X^T + lambda I``; :func:`sparsegpt_prune` additionally applies
  the OBS *weight update* that compensates remaining weights for the
  pruned ones, column by column.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

__all__ = [
    "wanda_scores",
    "sparsegpt_scores",
    "sparsegpt_prune",
    "calibration_hessian",
]

MaskFn = Callable[[np.ndarray], np.ndarray]


def _check_weight(weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"expected 2-D weights (out, in), got shape {weights.shape}")
    return weights


def _check_calibration(weights: np.ndarray, activations: np.ndarray) -> np.ndarray:
    activations = np.asarray(activations, dtype=np.float64)
    if activations.ndim != 2:
        raise ValueError(f"expected 2-D activations (samples, in), got {activations.shape}")
    if activations.shape[1] != weights.shape[1]:
        raise ValueError(
            f"activation feature dim {activations.shape[1]} != weight input dim {weights.shape[1]}"
        )
    return activations


def wanda_scores(weights: np.ndarray, activations: np.ndarray) -> np.ndarray:
    """Wanda criterion: ``|W_ij| * ||X_j||_2`` over the calibration set.

    ``weights`` is ``(out_features, in_features)``; ``activations`` is
    ``(samples, in_features)``.
    """
    weights = _check_weight(weights)
    activations = _check_calibration(weights, activations)
    norms = np.linalg.norm(activations, axis=0)
    return np.abs(weights) * norms[None, :]


def calibration_hessian(
    activations: np.ndarray, damping: float = 0.01
) -> np.ndarray:
    """``H = X^T X / n + lambda * mean(diag) * I`` from calibration activations.

    The relative damping follows SparseGPT's practice of scaling the ridge
    term by the average diagonal magnitude so one constant works across
    layers of very different activation scales.
    """
    activations = np.asarray(activations, dtype=np.float64)
    if activations.ndim != 2:
        raise ValueError(f"expected 2-D activations, got {activations.shape}")
    n = max(1, activations.shape[0])
    hessian = activations.T @ activations / n
    diag_mean = float(np.trace(hessian)) / max(1, hessian.shape[0])
    if diag_mean <= 0.0:
        diag_mean = 1.0
    hessian = hessian + damping * diag_mean * np.eye(hessian.shape[0])
    return hessian


def sparsegpt_scores(
    weights: np.ndarray, activations: np.ndarray, damping: float = 0.01
) -> np.ndarray:
    """OBS saliency ``w^2 / [H^-1]_jj`` (the SparseGPT pruning metric)."""
    weights = _check_weight(weights)
    activations = _check_calibration(weights, activations)
    hessian = calibration_hessian(activations, damping)
    hinv = np.linalg.inv(hessian)
    denom = np.clip(np.diag(hinv), 1e-12, None)
    return weights**2 / denom[None, :]


def sparsegpt_prune(
    weights: np.ndarray,
    activations: np.ndarray,
    mask_fn: MaskFn,
    damping: float = 0.01,
) -> Tuple[np.ndarray, np.ndarray]:
    """One-shot SparseGPT pruning with OBS error compensation.

    The mask is chosen by ``mask_fn`` applied to the OBS saliency scores
    (this is where the sparsity *pattern* plugs in); the surviving weights
    are then updated column-by-column so each pruned weight's contribution
    is redistributed through the inverse Hessian, following the SparseGPT
    update ``W[:, j:] -= (w_p / [H^-1]_pp) * H^-1[p, j:]``.

    Returns ``(pruned_weights, mask)``.
    """
    weights = _check_weight(weights).copy()
    activations = _check_calibration(weights, activations)
    hessian = calibration_hessian(activations, damping)
    hinv = np.linalg.inv(hessian)

    scores = weights**2 / np.clip(np.diag(hinv), 1e-12, None)[None, :]
    mask = mask_fn(scores).astype(bool)
    if mask.shape != weights.shape:
        raise ValueError("mask_fn returned a mask of the wrong shape")

    in_features = weights.shape[1]
    for j in range(in_features):
        pruned = ~mask[:, j]
        if not np.any(pruned):
            continue
        d = hinv[j, j]
        if d <= 1e-12:
            weights[pruned, j] = 0.0
            continue
        # The error of zeroing column j's pruned entries is redistributed
        # onto the not-yet-visited columns through the inverse Hessian.
        err = np.where(pruned, weights[:, j], 0.0)
        if j + 1 < in_features:
            weights[:, j + 1 :] -= np.outer(err / d, hinv[j, j + 1 :])
        weights[pruned, j] = 0.0
    weights[~mask] = 0.0
    return weights, mask
