"""Strictly-transposable N:M masks (the NM-T baseline, ref. [25]).

Hubara et al. propose masks that satisfy N:M simultaneously in *both*
dimensions of every ``M x M`` block, so the same mask works untouched
for the forward and backward GEMMs.  TBS subsumes this: a strictly
transposable block is valid in either direction, so its mask-space is a
subset of TBS's (which is why TBS reaches higher accuracy -- Sec. III-A
footnote 2 discusses NM-T's mask-diversity measure).

This module implements:

* :func:`is_transposable` -- check the 2-D N:M constraint per block;
* :func:`transposable_block_mask` -- maximum-score strictly transposable
  block mask (each row *and* each column keeps at most N entries);
* :func:`transposable_mask` -- whole-matrix construction block by block;
* :func:`transposable_sparsify` -- the NM-T counterpart of Algorithm 1,
  with per-block N chosen from the candidate set.

Mask construction is delegated to the pluggable solver backends in
:mod:`repro.core.tsolvers` -- ``greedy`` (the historical default),
``exact`` (min-cost-flow oracle) and ``tsenor`` (batched Sinkhorn/
Dykstra).  Every entry point takes ``backend=`` and falls back to
``$REPRO_TSOLVER`` and then ``greedy``; whole-matrix construction hands
the full block batch to the backend in one call so vectorized solvers
see the batch dimension.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..perf import timed
from .blocks import merge_from_blocks, split_into_blocks
from .masks import _as_scores, _top_k
from .patterns import (
    DEFAULT_M,
    PatternSpec,
    PatternFamily,
    nearest_candidates_grid,
)
from .tsolvers import solve_block, solve_blocks

__all__ = [
    "is_transposable",
    "transposable_block_mask",
    "transposable_mask",
    "transposable_sparsify",
]


def is_transposable(mask: np.ndarray, n: int, m: Optional[int] = None) -> bool:
    """True when every row *and* every column keeps at most ``n`` entries."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"expected a 2-D mask, got {mask.shape}")
    if m is not None and mask.shape != (m, m):
        raise ValueError(f"expected a {m}x{m} block")
    return bool(mask.sum(axis=0).max(initial=0) <= n and mask.sum(axis=1).max(initial=0) <= n)


def transposable_block_mask(
    scores: np.ndarray, n: int, backend: Optional[str] = None
) -> np.ndarray:
    """Max-score strictly transposable mask of one square block.

    ``backend`` selects the :mod:`repro.core.tsolvers` implementation
    (``greedy`` / ``exact`` / ``tsenor``); the default resolves through
    ``$REPRO_TSOLVER`` to ``greedy``.  The result always satisfies the
    2-D constraint and is deterministic on ties.
    """
    return solve_block(scores, n, backend=backend)


def _solve_block_grid(
    score_blocks: np.ndarray, block_n: np.ndarray, backend: Optional[str]
) -> np.ndarray:
    """Solve an ``(n_br, n_bc, m, m)`` block grid as one backend batch."""
    n_br, n_bc, m, _ = score_blocks.shape
    batch = score_blocks.reshape(n_br * n_bc, m, m)
    masks = solve_blocks(batch, np.asarray(block_n).reshape(-1), backend=backend)
    return masks.reshape(n_br, n_bc, m, m)


def transposable_mask(
    scores: np.ndarray,
    n: int,
    m: int = DEFAULT_M,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Whole-matrix strictly transposable N:M mask with fixed ``n``."""
    scores = np.abs(np.asarray(scores, dtype=np.float64))
    if scores.ndim != 2:
        raise ValueError(f"expected a 2-D score matrix, got {scores.shape}")
    rows, cols = scores.shape
    blocks = split_into_blocks(scores, m)
    n_grid = np.full(blocks.shape[:2], n, dtype=np.int64)
    out = _solve_block_grid(blocks, n_grid, backend)
    return merge_from_blocks(out, rows, cols)


@timed("core.mask.transposable_sparsify")
def transposable_sparsify(
    scores: np.ndarray,
    m: int = DEFAULT_M,
    sparsity: float = 0.5,
    candidates: Optional[Sequence[int]] = None,
    backend: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """NM-T with block-adaptive N (the fairest comparison against TBS).

    Like Algorithm 1, each block's N comes from its unstructured
    density; unlike TBS the block must then satisfy N:M in *both*
    dimensions.  Returns ``(mask, block_n)``.
    """
    spec = PatternSpec(
        PatternFamily.TBS, m=m, sparsity=sparsity, candidates=tuple(candidates) if candidates else None
    )
    magnitudes = _as_scores(scores)
    us = _top_k(scores, sparsity, magnitudes)
    score_blocks = split_into_blocks(magnitudes, m)
    density = split_into_blocks(us.astype(np.float64), m).mean(axis=(2, 3))
    block_n = nearest_candidates_grid(density, m, spec.candidates)
    out = _solve_block_grid(score_blocks, block_n, backend)
    rows, cols = magnitudes.shape
    return merge_from_blocks(out, rows, cols), block_n
