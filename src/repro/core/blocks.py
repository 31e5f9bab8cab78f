"""Block partitioning utilities shared by masks, formats and the simulator.

TBS divides the sparse matrix into ``M x M`` blocks (Sec. III-A1).  Real
layer shapes are not always multiples of M, so the partitioner follows the
usual accelerator convention of padding the trailing edge with zeros; the
iteration helpers hand out views of the *unpadded* region plus the block's
logical extent so that callers never see phantom elements.
"""

from __future__ import annotations

import math
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


#: Unsigned word of each byte width a run of flags is counted in.
_WORDS = {8: np.uint64, 4: np.uint32, 2: np.uint16, 1: np.uint8}


def count_trailing(flags: np.ndarray, ndim: int = 1) -> np.ndarray:
    """Number of ``True`` entries over the last ``ndim`` axes of ``flags``.

    A bool is one byte holding 0 or 1, so a word's popcount is the number
    of ``True`` bytes in it: each run of ``k`` consecutive flags is read
    as ``k / w`` machine words of the widest ``w`` (8, 4, 2 or 1 bytes)
    that divides ``k``, and each word is popcounted.  ``flags`` is read in
    place when it is a C-ordered bool array.  The counts come in the
    smallest unsigned dtype that holds ``k``.
    """
    flags = np.ascontiguousarray(flags, dtype=bool)
    lead = flags.shape[: flags.ndim - ndim]
    run = math.prod(flags.shape[flags.ndim - ndim :])
    word = next(w for w in (8, 4, 2, 1) if run % w == 0)
    counts = np.bitwise_count(flags.reshape(math.prod(lead), run).view(_WORDS[word]))
    if run != word:
        counts = counts.sum(axis=1, dtype=np.min_scalar_type(run))
    return counts.reshape(lead)


def block_row_counts(mask: np.ndarray, m: int) -> np.ndarray:
    """Non-zeros of every block row segment, shape ``(n_br, n_bc, m)``.

    Entry ``[br, bc, i]`` counts the non-zeros of matrix row ``br*m + i``
    in columns ``bc*m`` to ``bc*m + m - 1``; padding at a ragged edge
    counts as zero.  Each segment is ``m`` contiguous bytes of the packed
    bool mask (:func:`count_trailing`); the result is a view of the
    ``(rows, n_bc)`` counts.  Column segments are the row segments of
    ``mask.T``.
    """
    padded = pad_to_blocks(np.asarray(mask, dtype=bool), m)
    rows, cols = padded.shape
    counts = count_trailing(padded.reshape(rows, cols // m, m))
    return counts.reshape(rows // m, m, cols // m).swapaxes(1, 2)


def block_nnz(mask: np.ndarray, m: int) -> np.ndarray:
    """Non-zeros of every ``m x m`` block, shape ``(n_br, n_bc)``, int64."""
    return block_row_counts(mask, m).sum(axis=2, dtype=np.int64)
