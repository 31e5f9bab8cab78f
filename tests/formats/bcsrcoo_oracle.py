"""Per-block reference loops for the vectorized BCSR-COO encode.

:class:`repro.formats.BCSRCOOFormat` builds its block tables from one
block view of the matrix with array operations.  :func:`encode_loop` is
the loop it replaced, one block row and block column at a time, and
:func:`transposed_trace_loop` walks the stored payloads in (block
column, block row) order the same way.  They live here only as a test
oracle; nothing in ``src/`` calls them.
"""

import math
from typing import List

import numpy as np

from repro.formats.base import CSR_PTR_BYTES, VALUE_BYTES, EncodedMatrix, Segment
from repro.formats.bcsrcoo import BCSRCOO_BLOCK_META_BYTES


def encode_loop(dense: np.ndarray, m: int) -> EncodedMatrix:
    """Encode ``dense`` (zeros already applied) block by block."""
    rows, cols = dense.shape
    n_block_rows = -(-rows // m) if rows else 0
    n_block_cols = -(-cols // m) if cols else 0
    bitmap_block_bytes = int(math.ceil(m * m / 8.0))

    row_idx: List[int] = []
    col_idx: List[int] = []
    bitmaps: List[np.ndarray] = []
    val_parts: List[np.ndarray] = []
    block_nnz: List[int] = []
    row_ptr = np.zeros(n_block_rows + 1, dtype=np.int64)
    for br in range(n_block_rows):
        for bc in range(n_block_cols):
            tile = dense[br * m : (br + 1) * m, bc * m : (bc + 1) * m]
            occ = tile != 0.0
            count = int(np.count_nonzero(occ))
            if count == 0:
                continue
            bitmap = np.zeros((m, m), dtype=bool)
            bitmap[: occ.shape[0], : occ.shape[1]] = occ
            row_idx.append(br)
            col_idx.append(bc)
            bitmaps.append(bitmap)
            val_parts.append(tile[occ])  # row-major within the block
            block_nnz.append(count)
        row_ptr[br + 1] = len(row_idx)

    nblk = len(row_idx)
    block_ptr = np.zeros(nblk + 1, dtype=np.int64)
    np.cumsum(np.asarray(block_nnz, dtype=np.int64), out=block_ptr[1:])
    meta_bytes = (n_block_rows + 1) * CSR_PTR_BYTES + nblk * BCSRCOO_BLOCK_META_BYTES
    # Side tables, then each stored block's bitmap + values, back to back.
    segments = [Segment(0, meta_bytes)]
    addr = meta_bytes
    for count in block_nnz:
        nbytes = bitmap_block_bytes + count * VALUE_BYTES
        segments.append(Segment(addr, nbytes))
        addr += nbytes

    row_idx_arr = np.asarray(row_idx, dtype=np.int64)
    col_idx_arr = np.asarray(col_idx, dtype=np.int64)
    return EncodedMatrix(
        format_name="bcsrcoo",
        shape=(rows, cols),
        nnz=sum(block_nnz),
        value_bytes=sum(block_nnz) * VALUE_BYTES,
        index_bytes=nblk * bitmap_block_bytes,
        meta_bytes=meta_bytes,
        segments=segments,
        arrays={
            "row_ptr": row_ptr,
            "row_idx": row_idx_arr,
            "col_idx": col_idx_arr,
            "block_ptr": block_ptr,
            "t_order": np.array(
                sorted(range(nblk), key=lambda b: (col_idx[b], row_idx[b])), dtype=np.int64
            ),
            "bitmaps": np.stack(bitmaps) if bitmaps else np.zeros((0, m, m), dtype=bool),
            "values": np.concatenate(val_parts) if val_parts else np.zeros(0),
            "m": np.array(m),
        },
        block_size=m,
    )


def transposed_trace_loop(encoded: EncodedMatrix) -> List[Segment]:
    """Side tables, then each stored payload run in (block column, block row) order."""
    m = int(encoded.arrays["m"])
    bitmap_block_bytes = int(math.ceil(m * m / 8.0))
    block_ptr = encoded.arrays["block_ptr"].tolist()
    runs = []
    addr = encoded.meta_bytes
    for b, (row, col) in enumerate(
        zip(encoded.arrays["row_idx"].tolist(), encoded.arrays["col_idx"].tolist())
    ):
        nbytes = bitmap_block_bytes + (block_ptr[b + 1] - block_ptr[b]) * VALUE_BYTES
        runs.append(((col, row), Segment(addr, nbytes)))
        addr += nbytes
    return [Segment(0, encoded.meta_bytes)] + [seg for _, seg in sorted(runs)]
