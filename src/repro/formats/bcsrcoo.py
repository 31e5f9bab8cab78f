"""Blocked-CSR-COO hybrid -- one encoding, both consumption orientations.

The stk/MegaBlocks line of work stores a block-sparse matrix as blocked
CSR (row-pointer over block rows, per-block column index, contiguous
per-block payloads) and adds two COO-style side tables at encode time:
the explicit block-*row* index of every block and a precomputed
permutation of the blocks sorted by (block column, block row).  The CSR
structure serves the forward (block-row-major) product; the permutation
serves the transposed product by walking the *same stored payloads* in
block-column-major order -- no transposed copy, no re-encode.

Per-block payload here is a packed occupancy bitmap (``ceil(m*m/8)``
bytes) followed by the block's non-zero values row-major, so each block
is one contiguous run in either orientation.  The price of
transposability is the COO side tables (a few bytes per block) and the
loss of forward-stream perfection: the transposed walk visits payload
runs out of address order, so it fragments into one burst run per block
instead of one stream.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from ..core.blocks import block_grid_shape, block_nnz, split_into_blocks
from ..perf import timed
from .base import (
    CSR_PTR_BYTES,
    VALUE_BYTES,
    EncodedMatrix,
    EncodeSpec,
    SparseFormat,
    Trace,
)

__all__ = ["BCSRCOOFormat"]

#: Per-block COO/CSR side-table entry: 16-bit block column + 16-bit block
#: row + 16-bit transpose-permutation slot + 32-bit payload offset.
BCSRCOO_BLOCK_META_BYTES = 2 + 2 + 2 + 4


def _payload_offsets(meta_bytes: int, block_ptr: np.ndarray, m: int) -> np.ndarray:
    """Byte address of each stored block's payload run, plus the end address."""
    blk_bytes = int(math.ceil(m * m / 8.0)) + np.diff(block_ptr) * VALUE_BYTES
    offsets = np.zeros(blk_bytes.size + 1, dtype=np.int64)
    np.cumsum(blk_bytes, out=offsets[1:])
    return meta_bytes + offsets


class BCSRCOOFormat(SparseFormat):
    """Blocked CSR with a COO transpose index built once at encode time.

    Layout tables: ``row_ptr``, ``row_idx``, ``col_idx``, ``block_ptr``,
    ``t_order``, the per-block occupancy ``bitmaps`` and ``m`` -- all of
    the block structure, so both traces need no value.  Payload:
    ``values``, each stored block's non-zeros row-major.
    """

    name = "bcsrcoo"

    def _layout(self, occupancy: np.ndarray, spec: EncodeSpec) -> EncodedMatrix:
        rows, cols = occupancy.shape
        m = spec.effective_block_size
        n_block_rows, _ = block_grid_shape(rows, cols, m)

        nnz_grid = block_nnz(occupancy, m)
        stored = nnz_grid > 0
        # Stored blocks in block-row-major order, each payload row-major
        # within its block (ragged-edge padding is never occupied).
        row_idx, col_idx = np.nonzero(stored)
        row_ptr = np.zeros(n_block_rows + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(stored, axis=1), out=row_ptr[1:])
        nnz_arr = nnz_grid[stored]
        nblk = nnz_arr.size
        block_ptr = np.zeros(nblk + 1, dtype=np.int64)
        np.cumsum(nnz_arr, out=block_ptr[1:])
        bitmaps = split_into_blocks(occupancy, m)[stored]
        # The COO transpose permutation: stored blocks reordered by
        # (block column, block row).  Built once, here; the transposed
        # trace and decode walk it without ever re-encoding.
        t_order = np.lexsort((row_idx, col_idx))

        nnz = int(nnz_arr.sum())
        bitmap_block_bytes = int(math.ceil(m * m / 8.0))
        value_bytes = nnz * VALUE_BYTES
        index_bytes = nblk * bitmap_block_bytes
        meta_bytes = (n_block_rows + 1) * CSR_PTR_BYTES + nblk * BCSRCOO_BLOCK_META_BYTES

        # Byte layout: side tables first, then per-block payloads
        # (bitmap + values) back to back in stored (forward) order.
        offsets = _payload_offsets(meta_bytes, block_ptr, m)
        segments = Trace.after_header(meta_bytes, offsets[:-1], np.diff(offsets))

        return EncodedMatrix(
            format_name=self.name,
            shape=(rows, cols),
            nnz=nnz,
            value_bytes=value_bytes,
            index_bytes=index_bytes,
            meta_bytes=meta_bytes,
            segments=segments,
            tables={
                "row_ptr": row_ptr,
                "row_idx": row_idx,
                "col_idx": col_idx,
                "block_ptr": block_ptr,
                "t_order": t_order,
                "bitmaps": bitmaps,
                "m": np.array(m),
            },
        )

    def _gather(self, dense: np.ndarray, tables: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        blocks = split_into_blocks(dense, int(tables["m"]))
        return {
            "row_ptr": tables["row_ptr"],
            "row_idx": tables["row_idx"],
            "col_idx": tables["col_idx"],
            "block_ptr": tables["block_ptr"],
            "t_order": tables["t_order"],
            "bitmaps": tables["bitmaps"],
            "values": blocks[blocks != 0.0],
            "m": tables["m"],
        }

    def transposed_trace(self, encoded: EncodedMatrix) -> Trace:
        """Side tables, then the stored payload runs walked in ``t_order``.

        Same blocks, same bytes as the forward stream -- only the
        inter-block order changes, following the precomputed COO
        transpose permutation.  Each block stays one contiguous run, so
        the transposed pass costs one burst run per block rather than
        CSR's one fragment per element.
        """
        t_order = encoded.tables["t_order"]
        offsets = _payload_offsets(
            encoded.meta_bytes, encoded.tables["block_ptr"], int(encoded.tables["m"])
        )
        return Trace.after_header(
            encoded.meta_bytes, offsets[t_order], offsets[t_order + 1] - offsets[t_order]
        )

    @timed("formats.bcsrcoo.decode")
    def decode(self, encoded: EncodedMatrix) -> np.ndarray:
        rows, cols = encoded.shape
        m = int(encoded.arrays["m"])
        dense = np.zeros((rows, cols))
        row_idx = encoded.arrays["row_idx"]
        col_idx = encoded.arrays["col_idx"]
        block_ptr = encoded.arrays["block_ptr"]
        bitmaps = encoded.arrays["bitmaps"]
        vals = encoded.arrays["values"]
        for b in range(row_idx.size):
            r0, c0 = int(row_idx[b]) * m, int(col_idx[b]) * m
            h, w = min(m, rows - r0), min(m, cols - c0)
            occ = bitmaps[b][:h, :w]
            tile = np.zeros((h, w))
            tile[occ] = vals[int(block_ptr[b]) : int(block_ptr[b + 1])]
            dense[r0 : r0 + h, c0 : c0 + w] = tile
        return dense

    def decode_transposed(self, encoded: EncodedMatrix) -> np.ndarray:
        """Native transposed decode: scatter blocks along ``t_order``.

        Walks the stored payloads exactly as the transposed consumer
        would -- per-block transpose of the bitmap scatter -- without
        materialising the forward matrix first (and without re-encoding).
        """
        rows, cols = encoded.shape
        m = int(encoded.arrays["m"])
        out = np.zeros((cols, rows))
        row_idx = encoded.arrays["row_idx"]
        col_idx = encoded.arrays["col_idx"]
        block_ptr = encoded.arrays["block_ptr"]
        bitmaps = encoded.arrays["bitmaps"]
        vals = encoded.arrays["values"]
        for b in encoded.arrays["t_order"]:
            b = int(b)
            r0, c0 = int(row_idx[b]) * m, int(col_idx[b]) * m
            h, w = min(m, rows - r0), min(m, cols - c0)
            occ = bitmaps[b][:h, :w]
            tile = np.zeros((h, w))
            tile[occ] = vals[int(block_ptr[b]) : int(block_ptr[b + 1])]
            out[c0 : c0 + w, r0 : r0 + h] = tile.T
        return out
