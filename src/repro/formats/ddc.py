"""Dual-Dimensional Compression -- the TB-STC storage format (Sec. V-A).

DDC stores the matrix block by block:

* **Inter-block**: an Info table with one 16-bit entry per block --
  1 bit sparsity dimension, 3 bits sparsity ratio (the block's N), and a
  12-bit element offset of the block payload (Fig. 8(a)).
* **Intra-block**: the block's non-zeros compressed *along the block's own
  sparsity dimension* -- row-major runs of N values for reduction-dim
  blocks, column-major runs for independent-dim blocks -- plus 3-bit
  position indices.

Because each block's payload is a single contiguous run and carries no
alignment padding, DDC combines SDC's regular access with CSR's minimal
footprint, which is where the 1.47x bandwidth-utilization gain comes
from.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..core.blocks import extract_block, iter_blocks, scatter_block, split_into_blocks
from ..core.patterns import Direction
from ..perf import timed, use_reference_impl
from .base import (
    DDC_INFO_BYTES,
    VALUE_BYTES,
    EncodedMatrix,
    EncodeSpec,
    SparseFormat,
    Trace,
    apply_mask,
)

__all__ = ["DDCFormat", "infer_block_pattern"]


def infer_block_pattern(block: np.ndarray) -> tuple:
    """Infer (n, direction) of one block from its non-zero structure.

    A block whose rows all carry the same count ``n`` is a valid
    reduction-dim (ROW) block; uniform column counts give COL.  When both
    hold (e.g. empty or dense blocks) ROW wins; when neither holds the
    block is stored at the direction with the smaller maximum count,
    padded to that count (graceful handling of near-TBS inputs).
    Returns ``(n, direction, exact)``.
    """
    row_counts = np.count_nonzero(block, axis=1)
    col_counts = np.count_nonzero(block, axis=0)
    # A lane set is "uniform" when every non-empty lane carries the same
    # count (empty lanes are allowed: the N:M constraint is "at most N",
    # and ragged-edge padding produces legitimately empty lanes).
    row_max = int(row_counts.max())
    col_max = int(col_counts.max())
    row_uniform = set(row_counts.tolist()) <= {0, row_max}
    col_uniform = set(col_counts.tolist()) <= {0, col_max}
    if row_uniform:
        return row_max, Direction.ROW, True
    if col_uniform:
        return col_max, Direction.COL, True
    if row_max <= col_max:
        return row_max, Direction.ROW, False
    return col_max, Direction.COL, False


def _index_bytes(count, m: int):
    """Packed position-index bytes: log2(M) bits per kept element.

    ``count`` may be an int or an integer array (one count per block).
    """
    bits_per = max(1, int(math.ceil(math.log2(max(2, m)))))
    return -(-(count * bits_per) // 8)


class DDCFormat(SparseFormat):
    """The paper's dual-dimensional compression format."""

    name = "ddc"

    @timed("formats.ddc.encode")
    def _encode(self, values: np.ndarray, spec: EncodeSpec) -> EncodedMatrix:
        mask, tbs = spec.mask, spec.tbs
        dense = apply_mask(values, mask)
        rows, cols = dense.shape
        m = spec.effective_block_size

        block_meta: List[dict] = []
        payload_vals: List[np.ndarray] = []
        payload_idx: List[np.ndarray] = []
        offset = 0
        value_bytes = 0
        index_bytes = 0

        block_list = list(iter_blocks(rows, cols, m))
        # The streamed Info table, then each non-empty block's payload run.
        info_bytes = len(block_list) * DDC_INFO_BYTES
        payload_base = info_bytes

        if use_reference_impl():
            seg_addr: List[int] = []
            seg_bytes: List[int] = []
            for bidx in block_list:
                block = extract_block(dense, bidx, m)
                if tbs is not None:
                    n = int(tbs.block_n[bidx.row, bidx.col])
                    direction = Direction(int(tbs.block_direction[bidx.row, bidx.col]))
                else:
                    n, direction, _ = infer_block_pattern(block)

                work = block if direction is Direction.ROW else block.T
                vals = np.zeros((m, n))
                idxs = np.zeros((m, n), dtype=np.int64)
                for lane in range(m):
                    nz = np.nonzero(work[lane])[0][:n]
                    vals[lane, : nz.size] = work[lane, nz]
                    idxs[lane, : nz.size] = nz
                    # Pad unused slots with a repeat of the last index so the
                    # decode scatter stays idempotent (value 0 writes).
                    if nz.size < n and nz.size > 0:
                        idxs[lane, nz.size :] = nz[-1]

                count = m * n
                v_bytes = count * VALUE_BYTES
                i_bytes = _index_bytes(count, m)
                block_meta.append(
                    {"n": n, "direction": direction.value, "offset": offset, "row": bidx.row, "col": bidx.col}
                )
                payload_vals.append(vals)
                payload_idx.append(idxs)
                if v_bytes + i_bytes:
                    seg_addr.append(payload_base + offset)
                    seg_bytes.append(v_bytes + i_bytes)
                offset += v_bytes + i_bytes
                value_bytes += v_bytes
                index_bytes += i_bytes
            segments = Trace.after_header(info_bytes, seg_addr, seg_bytes)
        else:
            # Vectorized payload construction: pick every block's (n,
            # direction), sort each lane's non-zeros to the front, and
            # slice the per-block (m, n) payloads out of one batch.
            # Bit-exact with the loop above (equivalence suite).
            flat = split_into_blocks(dense, m).reshape(-1, m, m)
            if tbs is not None:
                ns = tbs.block_n.reshape(-1).astype(np.int64)
                dir_vals = tbs.block_direction.reshape(-1).astype(np.int64)
                dir_row = dir_vals == Direction.ROW.value
            else:
                row_counts = np.count_nonzero(flat, axis=2)
                col_counts = np.count_nonzero(flat, axis=1)
                row_max = row_counts.max(axis=1)
                col_max = col_counts.max(axis=1)
                row_uniform = ((row_counts == 0) | (row_counts == row_max[:, None])).all(axis=1)
                col_uniform = ((col_counts == 0) | (col_counts == col_max[:, None])).all(axis=1)
                dir_row = row_uniform | (~col_uniform & (row_max <= col_max))
                ns = np.where(dir_row, row_max, col_max)
                dir_vals = np.where(
                    dir_row, Direction.ROW.value, Direction.COL.value
                ).astype(np.int64)

            work = np.where(dir_row[:, None, None], flat, flat.transpose(0, 2, 1))
            # Stable sort on the zero predicate moves each lane's
            # non-zeros to the front in ascending column order -- `order`
            # holds their original indices, `vals_full` their values
            # (zero in every padding slot by construction).
            order = np.argsort(work == 0, axis=-1, kind="stable")
            vals_full = np.take_along_axis(work, order, axis=-1)
            counts = np.count_nonzero(work, axis=-1)
            # Slot k >= count repeats the last non-zero's index (decode
            # idempotence); empty lanes clip to slot 0, which stable
            # argsort leaves at index 0.
            clip = np.minimum(
                np.arange(m)[None, None, :], np.maximum(counts[:, :, None] - 1, 0)
            )
            idxs_full = np.take_along_axis(order, clip, axis=-1)

            counts_total = m * ns
            v_bytes_arr = counts_total * VALUE_BYTES
            i_bytes_arr = _index_bytes(counts_total, m)
            blk_bytes = v_bytes_arr + i_bytes_arr
            offsets = np.cumsum(blk_bytes) - blk_bytes
            value_bytes = int(v_bytes_arr.sum())
            index_bytes = int(i_bytes_arr.sum())
            for i, bidx in enumerate(block_list):
                n = int(ns[i])
                block_meta.append(
                    {
                        "n": n,
                        "direction": int(dir_vals[i]),
                        "offset": int(offsets[i]),
                        "row": bidx.row,
                        "col": bidx.col,
                    }
                )
                payload_vals.append(vals_full[i, :, :n].copy())
                payload_idx.append(idxs_full[i, :, :n].copy())
            stored = blk_bytes > 0
            segments = Trace.after_header(
                info_bytes, payload_base + offsets[stored], blk_bytes[stored]
            )

        def _object_array(items: List) -> np.ndarray:
            arr = np.empty(len(items), dtype=object)
            for i, item in enumerate(items):
                arr[i] = item
            return arr

        return EncodedMatrix(
            format_name=self.name,
            shape=(rows, cols),
            nnz=int(np.count_nonzero(dense)),
            value_bytes=value_bytes,
            index_bytes=index_bytes,
            meta_bytes=info_bytes,
            segments=segments,
            arrays={
                "block_meta": _object_array(block_meta),
                "block_values": _object_array(payload_vals),
                "block_indices": _object_array(payload_idx),
                "m": np.array(m),
            },
        )

    def transposed_trace(self, encoded: EncodedMatrix) -> Trace:
        """Transposed reads: Info table, then payloads in block-column order.

        Each block's payload stays one contiguous run either way -- the
        per-block direction bit means the intra-block layout is already
        defined along whichever dimension the consumer needs, so
        transposing only permutes the *inter-block* walk (block columns
        become block rows).  The direction bit changes which codec path
        expands the run, not how many bytes travel.
        """
        m = int(encoded.arrays["m"])
        metas = encoded.arrays["block_meta"]
        info_bytes = encoded.meta_bytes
        fields = np.array(
            [(meta["col"], meta["row"], meta["n"], meta["offset"]) for meta in metas],
            dtype=np.int64,
        ).reshape(-1, 4)
        col, row, n, offset = fields.T
        order = np.lexsort((row, col))
        count = m * n[order]
        nbytes = count * VALUE_BYTES + _index_bytes(count, m)
        stored = nbytes > 0
        return Trace.after_header(info_bytes, info_bytes + offset[order][stored], nbytes[stored])

    @timed("formats.ddc.decode")
    def decode(self, encoded: EncodedMatrix) -> np.ndarray:
        rows, cols = encoded.shape
        m = int(encoded.arrays["m"])
        dense = np.zeros((rows, cols))
        metas = encoded.arrays["block_meta"]
        all_vals = encoded.arrays["block_values"]
        all_idxs = encoded.arrays["block_indices"]
        blocks = {(b.row, b.col): b for b in iter_blocks(rows, cols, m)}
        lane_ids = np.arange(m)
        for meta, vals, idxs in zip(metas, all_vals, all_idxs):
            bidx = blocks[(meta["row"], meta["col"])]
            block = np.zeros((m, m))
            # Padding slots carry value 0 with a duplicated index;
            # skipping them keeps the real value intact.
            keep = vals != 0.0
            lanes = np.broadcast_to(lane_ids[:, None], vals.shape)
            block[lanes[keep], idxs[keep]] = vals[keep]
            if Direction(meta["direction"]) is Direction.COL:
                block = block.T
            scatter_block(dense, bidx, block)
        return dense

    @staticmethod
    def compression_ratio(encoded: EncodedMatrix) -> float:
        """Dense bytes / DDC bytes."""
        rows, cols = encoded.shape
        dense_bytes = rows * cols * VALUE_BYTES
        return dense_bytes / encoded.total_bytes if encoded.total_bytes else float("inf")
