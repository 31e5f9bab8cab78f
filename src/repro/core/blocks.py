"""Block partitioning utilities shared by masks, formats and the simulator.

TBS divides the sparse matrix into ``M x M`` blocks (Sec. III-A1).  Real
layer shapes are not always multiples of M, so the partitioner follows the
usual accelerator convention of padding the trailing edge with zeros; the
iteration helpers hand out views of the *unpadded* region plus the block's
logical extent so that callers never see phantom elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np


@dataclass(frozen=True)
class BlockIndex:
    """Location of one block within the block grid of a matrix."""

    row: int  # block-row index (independent dimension / matrix rows)
    col: int  # block-col index (reduction dimension / matrix cols)
    r0: int  # first matrix row covered
    c0: int  # first matrix col covered
    height: int  # rows actually covered (< m only at the ragged edge)
    width: int  # cols actually covered

    @property
    def slices(self) -> Tuple[slice, slice]:
        return (slice(self.r0, self.r0 + self.height), slice(self.c0, self.c0 + self.width))


def block_grid_shape(rows: int, cols: int, m: int) -> Tuple[int, int]:
    """Number of (block-rows, block-cols) covering a ``rows x cols`` matrix."""
    if m < 1:
        raise ValueError(f"block size must be positive, got {m}")
    return (-(-rows // m), -(-cols // m))


def iter_blocks(rows: int, cols: int, m: int) -> Iterator[BlockIndex]:
    """Yield block indices in row-major order over the block grid."""
    n_br, n_bc = block_grid_shape(rows, cols, m)
    for br in range(n_br):
        r0 = br * m
        height = min(m, rows - r0)
        for bc in range(n_bc):
            c0 = bc * m
            width = min(m, cols - c0)
            yield BlockIndex(br, bc, r0, c0, height, width)


def pad_to_blocks(matrix: np.ndarray, m: int) -> np.ndarray:
    """Zero-pad a 2-D array so both dims are multiples of ``m``.

    Returns the input unchanged (no copy) when already aligned.
    """
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {matrix.shape}")
    rows, cols = matrix.shape
    pad_r = (-rows) % m
    pad_c = (-cols) % m
    if pad_r == 0 and pad_c == 0:
        return matrix
    return np.pad(matrix, ((0, pad_r), (0, pad_c)))


def extract_block(matrix: np.ndarray, idx: BlockIndex, m: int) -> np.ndarray:
    """Return the ``m x m`` block at ``idx``, zero-padded at ragged edges."""
    view = matrix[idx.slices]
    if view.shape == (m, m):
        return view
    block = np.zeros((m, m), dtype=matrix.dtype)
    block[: idx.height, : idx.width] = view
    return block


def split_into_blocks(matrix: np.ndarray, m: int) -> np.ndarray:
    """Reshape a padded matrix into a 4-D ``(n_br, n_bc, m, m)`` block view."""
    padded = pad_to_blocks(matrix, m)
    rows, cols = padded.shape
    return padded.reshape(rows // m, m, cols // m, m).swapaxes(1, 2)


def merge_from_blocks(blocks: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`split_into_blocks`, cropping back to (rows, cols)."""
    n_br, n_bc, m, m2 = blocks.shape
    if m != m2:
        raise ValueError(f"blocks must be square, got {m}x{m2}")
    merged = blocks.swapaxes(1, 2).reshape(n_br * m, n_bc * m)
    return merged[:rows, :cols]
