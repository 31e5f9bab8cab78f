"""Strictly-transposable N:M masks (the NM-T baseline, ref. [25]).

Hubara et al. propose masks that satisfy N:M simultaneously in *both*
dimensions of every ``M x M`` block, so the same mask works untouched
for the forward and backward GEMMs.  TBS subsumes this: a strictly
transposable block is valid in either direction, so its mask-space is a
subset of TBS's (which is why TBS reaches higher accuracy -- Sec. III-A
footnote 2 discusses NM-T's mask-diversity measure).

:func:`transposable_sparsify` is the NM-T counterpart of Algorithm 1:
each block's N comes from the candidate set, and each row *and* each
column of the block keeps at most N entries.

Mask construction is delegated to the pluggable solver backends in
:mod:`repro.core.tsolvers` -- ``greedy`` (the historical default),
``exact`` (min-cost-flow oracle) and ``tsenor`` (batched Sinkhorn/
Dykstra).  ``backend=`` picks one (default ``greedy``); the whole
block grid goes to the backend in one call so vectorized solvers see
the batch dimension.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..perf import timed
from .blocks import block_nnz, merge_from_blocks, split_into_blocks
from .masks import _as_scores, _top_k
from .patterns import (
    DEFAULT_M,
    PatternSpec,
    PatternFamily,
    nearest_candidates_grid,
)
from .tsolvers import solve_blocks

__all__ = ["transposable_sparsify"]


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
    # The mean of a block's 0/1 flags is exactly its count over M*M.
    density = block_nnz(us, m) / (m * m)
    block_n = nearest_candidates_grid(density, m, spec.candidates)
    n_br, n_bc = block_n.shape
    masks = solve_blocks(
        score_blocks.reshape(n_br * n_bc, m, m), block_n.reshape(-1), backend=backend
    )
    rows, cols = magnitudes.shape
    return merge_from_blocks(masks.reshape(n_br, n_bc, m, m), rows, cols), block_n
