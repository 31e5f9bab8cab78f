"""Synthetic datasets standing in for CIFAR / ImageNet / GLUE.

Pattern-vs-pattern accuracy comparisons need a learnable task whose loss
surface punishes bad masks, not the specific datasets.  Three families:

* :func:`cluster_dataset` -- Gaussian clusters pushed through a fixed
  random nonlinear warp (MLP workloads).
* :func:`image_dataset` -- class template images + structured noise,
  shaped ``(N, C, H, W)`` (CNN workloads; the Cifar/ImageNet stand-in).
* :func:`sequence_dataset` -- token sequences whose class is determined
  by embedded token motifs (encoder workloads; the GLUE stand-in).

All generators are deterministic given their seed and return
``(train_x, train_y, test_x, test_y)`` with a held-out test split, as
the paper requires ("a test dataset independent of the training
dataset").

Every generator draws exclusively from a fresh
``numpy.random.default_rng(seed)`` -- never from numpy's global RNG,
so runs are reproducible.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["cluster_dataset", "image_dataset", "sequence_dataset"]

Dataset = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _split(x: np.ndarray, y: np.ndarray, test_fraction: float, rng: np.random.Generator) -> Dataset:
    n = x.shape[0]
    order = rng.permutation(n)
    x, y = x[order], y[order]
    n_test = max(1, int(test_fraction * n))
    return x[n_test:], y[n_test:], x[:n_test], y[:n_test]


def cluster_dataset(
    n_samples: int = 512,
    n_features: int = 32,
    n_classes: int = 4,
    seed: int = 0,
    test_fraction: float = 0.25,
    noise: float = 0.6,
) -> Dataset:
    """Gaussian clusters warped by a random 2-layer map."""
    if n_samples < n_classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 2.0, size=(n_classes, n_features))
    labels = rng.integers(0, n_classes, size=n_samples)
    x = centers[labels] + rng.normal(0, noise, size=(n_samples, n_features))
    # Fixed nonlinear warp so linear models cannot solve the task.
    w1 = rng.normal(0, 1.0 / np.sqrt(n_features), size=(n_features, n_features))
    x = np.tanh(x @ w1) + 0.3 * x
    return _split(x, labels, test_fraction, rng)


def image_dataset(
    n_samples: int = 384,
    channels: int = 3,
    size: int = 16,
    n_classes: int = 4,
    seed: int = 0,
    test_fraction: float = 0.25,
    noise: float = 0.45,
) -> Dataset:
    """Class-template images with per-sample noise and random shifts."""
    rng = np.random.default_rng(seed)
    templates = rng.normal(0, 1.0, size=(n_classes, channels, size, size))
    # Smooth the templates so classes have spatial structure.
    for axis in (2, 3):
        templates = 0.5 * templates + 0.25 * (
            np.roll(templates, 1, axis=axis) + np.roll(templates, -1, axis=axis)
        )
    labels = rng.integers(0, n_classes, size=n_samples)
    x = templates[labels] + rng.normal(0, noise, size=(n_samples, channels, size, size))
    shifts = rng.integers(-2, 3, size=(n_samples, 2))
    for i, (dy, dx) in enumerate(shifts):
        x[i] = np.roll(np.roll(x[i], dy, axis=1), dx, axis=2)
    return _split(x, labels, test_fraction, rng)


def sequence_dataset(
    n_samples: int = 384,
    seq_len: int = 16,
    vocab: int = 32,
    n_classes: int = 4,
    seed: int = 0,
    test_fraction: float = 0.25,
) -> Dataset:
    """Token sequences classified by which class motif they contain.

    Each class owns a 3-token motif; a sample is background noise with
    its class's motif planted at a random position -- attention must
    locate it, which is the GLUE-like structure the encoder needs.
    """
    rng = np.random.default_rng(seed)
    motifs = rng.integers(0, vocab, size=(n_classes, 3))
    labels = rng.integers(0, n_classes, size=n_samples)
    x = rng.integers(0, vocab, size=(n_samples, seq_len))
    for i, label in enumerate(labels):
        pos = rng.integers(0, seq_len - 3)
        x[i, pos : pos + 3] = motifs[label]
    order = rng.permutation(n_samples)
    x, labels = x[order], labels[order]
    n_test = max(1, int(test_fraction * n_samples))
    return x[n_test:], labels[n_test:], x[:n_test], labels[:n_test]
