"""Compressed Sparse Row -- minimal redundancy, poor contiguity (Fig. 7(b)).

CSR stores exactly the non-zeros plus indices, so almost no redundant
bytes are fetched.  The problem the paper highlights is *consumption
order*: the tensor core drains the matrix block by block, but one block's
worth of a CSR matrix is scattered across ``M`` distant row fragments, so
the trace degenerates into many short, non-contiguous bursts and the
effective bandwidth drops below 38.2%.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..perf import timed
from .base import (
    CSR_INDEX_BYTES,
    CSR_PTR_BYTES,
    VALUE_BYTES,
    EncodedMatrix,
    EncodeSpec,
    SparseFormat,
    Trace,
)


class CSRFormat(SparseFormat):
    """Textbook CSR with a block-major consumption trace.

    Layout tables: ``row_ptr`` and ``col_idx``, which place every stored
    element and so fix both traces.  Payload: ``values`` in CSR order.
    """

    name = "csr"

    def _layout(self, occupancy: np.ndarray, spec: EncodeSpec) -> EncodedMatrix:
        block_size = spec.effective_block_size
        rows, cols = occupancy.shape

        # np.nonzero walks the matrix row-major, which *is* CSR element
        # order; bincount of the row ids gives the pointers.
        r_idx, col_idx = np.nonzero(occupancy)
        row_ptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r_idx, minlength=rows), out=row_ptr[1:])
        col_idx = col_idx.astype(np.int64, copy=False)
        nnz = int(col_idx.size)

        segments = self._block_major_trace(row_ptr, col_idx, rows, block_size)
        return EncodedMatrix(
            format_name=self.name,
            shape=(rows, cols),
            nnz=nnz,
            value_bytes=nnz * VALUE_BYTES,
            index_bytes=nnz * CSR_INDEX_BYTES,
            meta_bytes=(rows + 1) * CSR_PTR_BYTES,
            segments=segments,
            tables={"row_ptr": row_ptr, "col_idx": col_idx},
        )

    def _gather(self, dense: np.ndarray, tables: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        row_ptr, col_idx = tables["row_ptr"], tables["col_idx"]
        r_idx = np.repeat(np.arange(dense.shape[0], dtype=np.int64), np.diff(row_ptr))
        return {"row_ptr": row_ptr, "col_idx": col_idx, "values": dense[r_idx, col_idx]}

    def _block_major_trace(
        self,
        row_ptr: np.ndarray,
        col_idx: np.ndarray,
        rows: int,
        block_size: int,
    ) -> Trace:
        """Reads issued when draining the matrix block by block.

        We model the accelerator-friendly packed layout where each
        non-zero's value and column index travel together (4 bytes per
        element).  A block still touches, for each of its rows, only the
        short contiguous run of that row's non-zeros whose columns fall
        inside the block -- and those runs are scattered across the whole
        array, which is the non-contiguity the paper calls out.
        """
        elem_bytes = VALUE_BYTES + CSR_INDEX_BYTES
        # Each segment is a maximal run of consecutive non-zeros sharing
        # (row, block-column); CSR order already groups them, so the run
        # boundaries fall where either key changes.  Runs are then
        # reordered into block-major (block-row, block-col, row)
        # emission order.
        n = int(col_idx.size)
        if n == 0:
            return Trace()
        r_idx = np.repeat(np.arange(rows, dtype=np.int64), np.diff(row_ptr))
        bc = col_idx // block_size
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = (r_idx[1:] != r_idx[:-1]) | (bc[1:] != bc[:-1])
        starts = np.nonzero(boundary)[0]
        counts = np.diff(np.append(starts, n))
        seg_r = r_idx[starts]
        seg_bc = bc[starts]
        order = np.lexsort((seg_r, seg_bc, seg_r // block_size))
        return Trace(starts[order] * elem_bytes, counts[order] * elem_bytes)

    def transposed_trace(self, encoded: EncodedMatrix) -> Trace:
        """Reads issued when draining the *transpose* block by block.

        CSR is laid out along rows of the stored matrix, but the
        transposed pass consumes along its columns: consecutive elements
        of one transposed row live one whole CSR row apart.  Every
        element therefore becomes its own 4-byte segment -- the scattered
        -column penalty that makes CSR the worst backward-pass citizen.
        """
        row_ptr = encoded.tables["row_ptr"]
        col_idx = encoded.tables["col_idx"]
        rows, _ = encoded.shape
        block_size = encoded.block_size
        n = int(col_idx.size)
        if n == 0:
            return Trace()
        elem_bytes = VALUE_BYTES + CSR_INDEX_BYTES
        r_idx = np.repeat(np.arange(rows, dtype=np.int64), np.diff(row_ptr))
        # Transposed block-major emission: outer key is the stored
        # block-column (= transposed block-row), then the stored
        # block-row, then column (= transposed row), then row.
        order = np.lexsort((r_idx, col_idx, r_idx // block_size, col_idx // block_size))
        return Trace(order * elem_bytes, np.full(n, elem_bytes))

    @timed("formats.csr.decode")
    def decode(self, encoded: EncodedMatrix) -> np.ndarray:
        rows, cols = encoded.shape
        dense = np.zeros((rows, cols))
        row_ptr = encoded.arrays["row_ptr"]
        col_idx = encoded.arrays["col_idx"]
        vals = encoded.arrays["values"]
        # The vectorized scatter expands row ids with np.repeat, which on
        # a corrupted row_ptr (fault injection flips pointer bits) would
        # try to materialise billions of entries.  The loop's slices clamp
        # such pointers for free, so route anything malformed through it.
        diffs = np.diff(row_ptr)
        well_formed = (
            row_ptr.size == rows + 1
            and int(row_ptr[0]) == 0
            and int(row_ptr[-1]) == vals.size
            and bool((diffs >= 0).all())
        )
        if not well_formed:
            for r in range(rows):
                lo, hi = int(row_ptr[r]), int(row_ptr[r + 1])
                dense[r, col_idx[lo:hi]] = vals[lo:hi]
            return dense
        r_idx = np.repeat(np.arange(rows, dtype=np.int64), diffs)
        dense[r_idx, col_idx] = vals
        return dense
