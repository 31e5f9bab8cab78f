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
from typing import Dict

import numpy as np

from ..core.blocks import block_grid_shape, merge_from_blocks, split_into_blocks
from ..core.patterns import Direction
from ..perf import timed
from .base import (
    DDC_INFO_BYTES,
    VALUE_BYTES,
    EncodedMatrix,
    EncodeSpec,
    SparseFormat,
    Trace,
)

__all__ = ["DDC_INFO_DTYPE", "DDCFormat", "infer_block_pattern"]

#: One Info-table entry per block (Fig. 8(a)): the block's sparsity
#: dimension (a :class:`Direction` value), its N, and the byte offset of
#: its payload run from the end of the Info table.
DDC_INFO_DTYPE = np.dtype([("direction", np.int64), ("n", np.int64), ("offset", np.int64)])


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


def _pack_lanes(work: np.ndarray, ns: np.ndarray):
    """Every block's ``(m, n)`` payload, flattened back to back.

    ``work`` holds the blocks as ``(blocks, m, m)`` with lanes along the
    last axis, ``ns`` each block's N.  A lane keeps its first ``n``
    non-zeros in ascending index order.  Unused slots hold value 0 and
    repeat the lane's last non-zero index (index 0 in an empty lane), so
    the decode scatter stays idempotent.  Returns ``(values, indices)``.
    """
    m = work.shape[-1]
    lane_n = np.repeat(ns, m)
    lane_ptr = np.zeros(lane_n.size + 1, dtype=np.int64)
    np.cumsum(lane_n, out=lane_ptr[1:])
    flat = work.reshape(-1)
    # Non-zeros in (lane, index) order; each one's slot is its rank in
    # its lane, and only the first n slots of a lane are stored.
    pos = np.flatnonzero(flat)
    lane = pos // m
    lane_count = np.bincount(lane, minlength=lane_n.size)
    slot = np.arange(pos.size) - (np.cumsum(lane_count) - lane_count)[lane]
    keep = slot < lane_n[lane]
    pos, lane, slot = pos[keep], lane[keep], slot[keep]
    dest = lane_ptr[lane] + slot
    values = np.zeros(lane_ptr[-1])
    values[dest] = flat[pos]
    # A running max over the stored flat positions carries a lane's last
    # non-zero into its padding slots (positions grow with the lane);
    # subtracting the lane's base position gives the in-lane index, and
    # an empty lane, left with an earlier lane's position, clips to 0.
    indices = np.zeros(lane_ptr[-1], dtype=np.int64)
    indices[dest] = pos
    np.maximum.accumulate(indices, out=indices)
    indices -= np.repeat(np.arange(0, flat.size, m), lane_n)
    np.maximum(indices, 0, out=indices)
    return values, indices


def _index_bytes(count, m: int):
    """Packed position-index bytes: log2(M) bits per kept element.

    ``count`` may be an int or an integer array (one count per block).
    """
    bits_per = max(1, int(math.ceil(math.log2(max(2, m)))))
    return -(-(count * bits_per) // 8)


class DDCFormat(SparseFormat):
    """The paper's dual-dimensional compression format.

    Layout tables: ``info``, the Info table as one :data:`DDC_INFO_DTYPE`
    entry per block in row-major block order; ``block_ptr``, where block
    ``b``'s payload is ``values[block_ptr[b]:block_ptr[b + 1]]``; and
    ``m``.  Each block's N and direction come from the TBS metadata, or
    from the block's occupancy when there is none, so the byte counts and
    both traces need no value.  Payload: ``values`` and ``indices``, every
    block's ``(m, n)`` lane-major run flattened back to back.
    """

    name = "ddc"

    def _layout(self, occupancy: np.ndarray, spec: EncodeSpec) -> EncodedMatrix:
        tbs = spec.tbs
        rows, cols = occupancy.shape
        m = spec.effective_block_size
        n_br, n_bc = block_grid_shape(rows, cols, m)
        info = np.zeros(n_br * n_bc, dtype=DDC_INFO_DTYPE)

        # Every block's (n, direction): from the TBS metadata when given,
        # else inferred from its occupancy.
        if tbs is not None:
            info["n"] = tbs.block_n.reshape(-1)
            info["direction"] = tbs.block_direction.reshape(-1)
        else:
            flat = split_into_blocks(occupancy, m).reshape(-1, m, m)
            row_counts = np.count_nonzero(flat, axis=2)
            col_counts = np.count_nonzero(flat, axis=1)
            row_max = row_counts.max(axis=1)
            col_max = col_counts.max(axis=1)
            row_uniform = ((row_counts == 0) | (row_counts == row_max[:, None])).all(axis=1)
            col_uniform = ((col_counts == 0) | (col_counts == col_max[:, None])).all(axis=1)
            dir_row = row_uniform | (~col_uniform & (row_max <= col_max))
            info["n"] = np.where(dir_row, row_max, col_max)
            info["direction"] = np.where(dir_row, Direction.ROW.value, Direction.COL.value)

        count = m * info["n"]
        block_ptr = np.zeros(info.size + 1, dtype=np.int64)
        np.cumsum(count, out=block_ptr[1:])
        v_bytes = count * VALUE_BYTES
        i_bytes = _index_bytes(count, m)
        blk_bytes = v_bytes + i_bytes
        info["offset"] = np.cumsum(blk_bytes) - blk_bytes
        # The streamed Info table, then each non-empty block's payload run.
        info_bytes = info.size * DDC_INFO_BYTES
        stored = blk_bytes > 0
        segments = Trace.after_header(
            info_bytes, info_bytes + info["offset"][stored], blk_bytes[stored]
        )

        return EncodedMatrix(
            format_name=self.name,
            shape=(rows, cols),
            nnz=int(np.count_nonzero(occupancy)),
            value_bytes=int(v_bytes.sum()),
            index_bytes=int(i_bytes.sum()),
            meta_bytes=info_bytes,
            segments=segments,
            tables={"info": info, "block_ptr": block_ptr, "m": np.array(m)},
        )

    def _gather(self, dense: np.ndarray, tables: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Pack each lane's non-zeros to the front, every block in one batch."""
        info = tables["info"]
        m = int(tables["m"])
        flat = split_into_blocks(dense, m).reshape(-1, m, m)
        dir_row = info["direction"] == Direction.ROW.value
        work = np.where(dir_row[:, None, None], flat, flat.transpose(0, 2, 1))
        flat_vals, flat_idx = _pack_lanes(work, info["n"])
        return {
            "info": info,
            "values": flat_vals,
            "indices": flat_idx,
            "block_ptr": tables["block_ptr"],
            "m": tables["m"],
        }

    def transposed_trace(self, encoded: EncodedMatrix) -> Trace:
        """Transposed reads: Info table, then payloads in block-column order.

        Each block's payload stays one contiguous run either way -- the
        per-block direction bit means the intra-block layout is already
        defined along whichever dimension the consumer needs, so
        transposing only permutes the *inter-block* walk (block columns
        become block rows).  The direction bit changes which codec path
        expands the run, not how many bytes travel.
        """
        rows, cols = encoded.shape
        m = int(encoded.tables["m"])
        info = encoded.tables["info"]
        info_bytes = encoded.meta_bytes
        # The Info table is row-major over the block grid; walk it
        # column-major.
        order = np.arange(info.size).reshape(block_grid_shape(rows, cols, m)).T.ravel()
        count = m * info["n"][order]
        nbytes = count * VALUE_BYTES + _index_bytes(count, m)
        stored = nbytes > 0
        return Trace.after_header(
            info_bytes, info_bytes + info["offset"][order][stored], nbytes[stored]
        )

    @timed("formats.ddc.decode")
    def decode(self, encoded: EncodedMatrix) -> np.ndarray:
        """Scatter every payload back, reading only the Info direction field.

        Each block's payload run is sliced by ``block_ptr``, not by the
        Info table's N or offset.
        """
        rows, cols = encoded.shape
        m = int(encoded.arrays["m"])
        block_ptr = encoded.arrays["block_ptr"]
        vals = encoded.arrays["values"]
        idxs = encoded.arrays["indices"]
        count = np.diff(block_ptr)
        slot_block = np.repeat(np.arange(count.size), count)
        slot = np.arange(vals.size) - block_ptr[slot_block]
        lane = slot // (count // m)[slot_block]
        blocks = np.zeros((count.size, m, m))
        # Padding slots carry value 0 with a duplicated index;
        # skipping them keeps the real value intact.
        keep = vals != 0.0
        blocks[slot_block[keep], lane[keep], idxs[keep]] = vals[keep]
        col = encoded.arrays["info"]["direction"] == Direction.COL.value
        blocks[col] = blocks[col].transpose(0, 2, 1)
        n_br, n_bc = block_grid_shape(rows, cols, m)
        return np.ascontiguousarray(
            merge_from_blocks(blocks.reshape(n_br, n_bc, m, m), rows, cols)
        )

    @staticmethod
    def compression_ratio(encoded: EncodedMatrix) -> float:
        """Dense bytes / DDC bytes."""
        rows, cols = encoded.shape
        dense_bytes = rows * cols * VALUE_BYTES
        return dense_bytes / encoded.total_bytes if encoded.total_bytes else float("inf")
