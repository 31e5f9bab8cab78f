"""Algorithm 1 -- TBS sparsification.

Given a dense score matrix, produce the transposable block-wise N:M mask
that best approximates the unstructured mask at the target sparsity:

1. *Unstructured pruning*: prune to the target sparsity globally.
2. *Determine N*: split into ``M x M`` blocks; each block picks the
   candidate N whose density ``N / M`` is closest to the block's
   unstructured density.
3. *Determine pruning direction*: build both the reduction-dimension
   (row-wise) and independent-dimension (column-wise) top-N patterns and
   keep whichever is closer (L1) to the block's unstructured pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..perf import timed
from .blocks import merge_from_blocks, split_into_blocks
from .masks import _col_ranks, _row_ranks, _top_k, _top_n
from .patterns import (
    DEFAULT_M,
    BlockPattern,
    Direction,
    PatternSpec,
    PatternFamily,
    nearest_candidates_grid,
)

__all__ = ["TBSResult", "tbs_sparsify", "block_pattern_grid"]


@dataclass
class TBSResult:
    """Output of Algorithm 1.

    Attributes
    ----------
    mask:
        Boolean keep-mask with the original matrix shape.
    block_n:
        Integer array ``(n_br, n_bc)`` -- each block's chosen N.
    block_direction:
        Integer array ``(n_br, n_bc)`` of :class:`Direction` values.
    m:
        Block size.
    shape:
        Original (unpadded) matrix shape.
    """

    mask: np.ndarray
    block_n: np.ndarray
    block_direction: np.ndarray
    m: int
    shape: Tuple[int, int]

    @property
    def sparsity(self) -> float:
        return 1.0 - float(self.mask.mean()) if self.mask.size else 0.0

    def block_patterns(self) -> List[List[BlockPattern]]:
        """Per-block :class:`BlockPattern` metadata (DDC Info-table source)."""
        n_br, n_bc = self.block_n.shape
        return [
            [
                BlockPattern(int(self.block_n[r, c]), self.m, Direction(int(self.block_direction[r, c])))
                for c in range(n_bc)
            ]
            for r in range(n_br)
        ]

    def transposed(self) -> "TBSResult":
        """The TBS metadata of ``W.T`` -- the paper's transposition property.

        During training the backward pass multiplies by the transposed
        weights (Sec. I, Challenge-1).  A TBS mask transposes into
        another valid TBS mask: the block grid transposes and every
        block's sparsity dimension flips (a row-wise block of ``W`` is a
        column-wise block of ``W.T``), so both passes run on the same
        hardware with the same per-block N.
        """
        flipped = np.where(
            self.block_direction == Direction.ROW.value,
            Direction.COL.value,
            Direction.ROW.value,
        ).T.astype(np.int64)
        return TBSResult(
            mask=self.mask.T.copy(),
            block_n=self.block_n.T.copy(),
            block_direction=flipped,
            m=self.m,
            shape=(self.shape[1], self.shape[0]),
        )

    def direction_histogram(self) -> dict:
        """Counts of row / column / trivial ("other") blocks -- Fig. 17.

        Blocks with N = 0 (empty) or N = M (dense) satisfy both dimensions
        simultaneously, so the paper's distribution plot buckets them as
        "other".
        """
        trivial = (self.block_n == 0) | (self.block_n == self.m)
        rows = int(((self.block_direction == Direction.ROW.value) & ~trivial).sum())
        cols = int(((self.block_direction == Direction.COL.value) & ~trivial).sum())
        other = int(trivial.sum())
        return {"row": rows, "col": cols, "other": other}


def _directional_masks(
    scores: np.ndarray, magnitudes: np.ndarray, block_n: np.ndarray, m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise and column-wise top-N masks for every block at once.

    Both passes read the M-group ranks of ``magnitudes`` (``|scores|``),
    which every family pruning the same read-only ``scores`` shares
    (:mod:`repro.core.masks`).  ``block_n`` has shape ``(n_br, n_bc)``
    and broadcasts over the per-row / per-column top-N.  The row masks
    are C-ordered ``(n_br, n_bc, m, m)`` and the column masks the
    swapaxes view of a C-ordered array: the direction tie-break's float
    sums follow that memory order.
    """
    n_br, n_bc = block_n.shape
    n_rows = block_n[:, :, None]  # same N for each of the m rows
    # Row ranks [k, br*m + i, bc] -> [br, bc, i, k].
    rows = _row_ranks(scores, magnitudes, m, 0.0).reshape(m, n_br, m, n_bc)
    row_masks = _top_n(rows.transpose(1, 3, 2, 0), n_rows)
    # Column ranks [i, br, bc*m + j] -> [br, bc, j, i], top-N along i.
    cols = _col_ranks(scores, magnitudes, m).reshape(m, n_br, n_bc, m)
    col_masks = np.swapaxes(_top_n(cols.transpose(1, 2, 3, 0), n_rows), 2, 3)
    return row_masks, col_masks


@timed("core.mask.tbs_sparsify")
def tbs_sparsify(
    scores: np.ndarray,
    m: int = DEFAULT_M,
    sparsity: float = 0.5,
    candidates: Optional[Sequence[int]] = None,
    us_mask: Optional[np.ndarray] = None,
) -> TBSResult:
    """Run Algorithm 1 and return the TBS mask plus per-block metadata.

    Parameters
    ----------
    scores:
        Importance scores (e.g. ``|W|`` or a Wanda/SparseGPT criterion).
    m:
        Block size M.
    sparsity:
        Target sparsity degree ``t_s``.
    candidates:
        Allowed per-block N values; defaults to the paper's
        ``{0, 1, 2, 4, 8}`` scaled to ``m``.
    us_mask:
        Precomputed unstructured mask (step 1).  Without it, step 1 reads
        the top-k mask of ``|scores|`` at ``sparsity``, which every family
        pruning the same read-only ``scores`` shares
        (:mod:`repro.core.masks`); a caller that already holds that mask
        (or compares patterns against another one) passes it here.
    """
    # C order whatever the caller's layout: the direction tie-break below
    # sums score mass in memory order, so the layout must not vary.
    magnitudes = np.abs(np.asarray(scores, dtype=np.float64), order="C")
    if magnitudes.ndim != 2:
        raise ValueError(f"expected 2-D scores, got shape {magnitudes.shape}")
    spec = PatternSpec(
        PatternFamily.TBS, m=m, sparsity=sparsity, candidates=tuple(candidates) if candidates else None
    )

    # Step 1: unstructured pruning at the target sparsity.
    if us_mask is None:
        us_mask = _top_k(scores, sparsity, magnitudes)
    elif us_mask.shape != magnitudes.shape:
        raise ValueError("us_mask shape must match scores")

    rows, cols = magnitudes.shape
    score_blocks = split_into_blocks(magnitudes, m)
    us_blocks = split_into_blocks(np.asarray(us_mask, dtype=bool), m)

    # Step 2: per-block N from the unstructured density.  Padding at the
    # ragged edge counts as zeros, exactly as the padded hardware tile does.
    block_density = np.count_nonzero(us_blocks, axis=(2, 3)) / (m * m)
    block_n = nearest_candidates_grid(block_density, m, spec.candidates)

    # Step 3: per-block direction by L1 distance to the unstructured pattern.
    row_masks, col_masks = _directional_masks(scores, magnitudes, block_n, m)
    dist_row = np.count_nonzero(row_masks ^ us_blocks, axis=(2, 3))
    dist_col = np.count_nonzero(col_masks ^ us_blocks, axis=(2, 3))
    # Tie-break toward the direction keeping more total score mass, then ROW.
    mass_row = (score_blocks * row_masks).sum(axis=(2, 3))
    mass_col = (score_blocks * col_masks).sum(axis=(2, 3))
    choose_col = (dist_col < dist_row) | ((dist_col == dist_row) & (mass_col > mass_row))

    direction = np.where(choose_col, Direction.COL.value, Direction.ROW.value).astype(np.int64)
    chosen = np.where(choose_col[:, :, None, None], col_masks, row_masks)
    mask = merge_from_blocks(chosen, rows, cols)
    return TBSResult(mask=mask, block_n=block_n, block_direction=direction, m=m, shape=(rows, cols))


def block_pattern_grid(result: TBSResult) -> np.ndarray:
    """Object array of :class:`BlockPattern`, convenient for format layers."""
    grid = np.empty(result.block_n.shape, dtype=object)
    for r in range(grid.shape[0]):
        for c in range(grid.shape[1]):
            grid[r, c] = BlockPattern(
                int(result.block_n[r, c]), result.m, Direction(int(result.block_direction[r, c]))
            )
    return grid
