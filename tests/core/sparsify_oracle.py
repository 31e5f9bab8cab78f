"""Algorithm 1 as ``tbs_sparsify`` ran it before it counted blocks by popcount.

``repro.core.sparsify.tbs_sparsify`` counts every block from packed
masks (``repro.core.blocks.count_trailing``) and sums the direction
tie-break's score mass only for blocks whose two directions tie
(``_tied_mass``).  :func:`tbs_sparsify_full` is the body it replaced:
``np.count_nonzero`` over 4-D strided block views for the densities and
the L1 distances, and the mass of every block in both directions.
:func:`direction_terms` returns that body's distances and masses, so a
test can compare the tied blocks' masses bit for bit.  Both read the
directional masks through ``repro.core.sparsify._directional_masks``,
whose ranks ``tests/core/test_topn_oracle.py`` checks on their own.
They live here only as test oracles; nothing in ``src/`` calls them.
"""

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.blocks import merge_from_blocks, split_into_blocks
from repro.core.masks import _top_k
from repro.core.patterns import Direction, PatternFamily, PatternSpec, nearest_candidates_grid
from repro.core.sparsify import TBSResult, _directional_masks


def _steps(scores, m, sparsity, candidates, us_mask):
    magnitudes = np.abs(np.asarray(scores, dtype=np.float64), order="C")
    spec = PatternSpec(
        PatternFamily.TBS, m=m, sparsity=sparsity, candidates=tuple(candidates) if candidates else None
    )
    if us_mask is None:
        us_mask = _top_k(scores, sparsity, magnitudes)
    score_blocks = split_into_blocks(magnitudes, m)
    us_blocks = split_into_blocks(np.asarray(us_mask, dtype=bool), m)
    block_density = np.count_nonzero(us_blocks, axis=(2, 3)) / (m * m)
    block_n = nearest_candidates_grid(block_density, m, spec.candidates)
    row_masks, col_masks = _directional_masks(scores, magnitudes, block_n, m)
    dist_row = np.count_nonzero(row_masks ^ us_blocks, axis=(2, 3))
    dist_col = np.count_nonzero(col_masks ^ us_blocks, axis=(2, 3))
    mass_row = (score_blocks * row_masks).sum(axis=(2, 3))
    mass_col = (score_blocks * col_masks).sum(axis=(2, 3))
    return magnitudes.shape, block_n, row_masks, col_masks, dist_row, dist_col, mass_row, mass_col


def direction_terms(
    scores: np.ndarray,
    m: int,
    sparsity: float,
    candidates: Optional[Sequence[int]] = None,
    us_mask: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(dist_row, dist_col, mass_row, mass_col)`` of every block."""
    return _steps(scores, m, sparsity, candidates, us_mask)[4:]


def tbs_sparsify_full(
    scores: np.ndarray,
    m: int,
    sparsity: float,
    candidates: Optional[Sequence[int]] = None,
    us_mask: Optional[np.ndarray] = None,
) -> TBSResult:
    """Algorithm 1 with strided-view counts and every block's mass."""
    (rows, cols), block_n, row_masks, col_masks, dist_row, dist_col, mass_row, mass_col = _steps(
        scores, m, sparsity, candidates, us_mask
    )
    choose_col = (dist_col < dist_row) | ((dist_col == dist_row) & (mass_col > mass_row))
    direction = np.where(choose_col, Direction.COL.value, Direction.ROW.value).astype(np.int64)
    chosen = np.where(choose_col[:, :, None, None], col_masks, row_masks)
    mask = merge_from_blocks(chosen, rows, cols)
    return TBSResult(mask=mask, block_n=block_n, block_direction=direction, m=m, shape=(rows, cols))
