"""Single-Dimensional Compression -- aligned rows, redundant padding.

SDC (Fig. 7(a)) compresses every row to the *maximum* per-row non-zero
count so that each compressed row has the same width and its address is
directly computable.  Memory access stays perfectly regular, but the TBS
pattern's independent-dimension blocks make per-row counts uneven, so the
padding (invalid elements) averages >61.54% of the fetched bytes.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..perf import timed
from .base import (
    VALUE_BYTES,
    EncodedMatrix,
    EncodeSpec,
    SparseFormat,
    Trace,
)

#: Per-element position index: log2(M)=3 bits for M=8, stored packed
#: (0.375 byte per slot).
SDC_INDEX_BYTES = 0.375


class SDCFormat(SparseFormat):
    """Row-aligned compressed layout padded to the max row occupancy.

    ``group_rows=None`` (default) pads every row to the whole matrix's
    maximum occupancy -- the paper's Fig. 7(a) layout used for the
    bandwidth analysis.  Hardware implementations (VEGETA's row groups)
    align within groups of ``group_rows`` rows instead, trading direct
    addressability granularity for less padding; the simulator uses
    ``group_rows=M``.

    Layout table: ``widths``, every row's padded width.  Payload:
    ``values`` and ``indices``, each row's non-zeros packed to the front
    of its padded width, and ``valid``, which of those slots hold one.
    """

    name = "sdc"

    def __init__(self, group_rows: Optional[int] = None):
        if group_rows is not None and group_rows < 1:
            raise ValueError("group_rows must be positive")
        self.group_rows = group_rows

    def _layout(self, occupancy: np.ndarray, spec: EncodeSpec) -> EncodedMatrix:
        block_size = spec.effective_block_size
        rows, cols = occupancy.shape
        row_nnz = np.count_nonzero(occupancy, axis=1) if rows else np.zeros(0, dtype=int)
        group = self.group_rows or max(1, rows)
        # Per-row padded width: the max occupancy within the row's group.
        starts = np.arange(0, rows, group)
        widths = np.repeat(np.maximum.reduceat(row_nnz, starts), np.diff(starts, append=rows))

        nnz = int(row_nnz.sum())
        stored_slots = int(widths.sum())
        # Streaming trace: whole padded row-groups in block-row order.
        # Access is regular (directly addressable) but every padded slot
        # travels over the bus.
        group_slots = np.add.reduceat(widths, np.arange(0, rows, block_size))
        group_bytes = (group_slots * (VALUE_BYTES + SDC_INDEX_BYTES)).astype(np.int64)
        group_addr = np.cumsum(group_bytes) - group_bytes
        keep = group_bytes > 0
        segments = Trace(group_addr[keep], group_bytes[keep])

        return EncodedMatrix(
            format_name=self.name,
            shape=(rows, cols),
            nnz=nnz,
            value_bytes=stored_slots * VALUE_BYTES,
            index_bytes=int(stored_slots * SDC_INDEX_BYTES),
            meta_bytes=0,
            segments=segments,
            tables={"widths": widths},
        )

    def _gather(self, dense: np.ndarray, tables: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        rows, cols = dense.shape
        widths = tables["widths"]
        row_nnz = np.count_nonzero(dense, axis=1) if rows else np.zeros(0, dtype=int)
        width = int(widths.max()) if rows and cols else 0
        # Stable sort on the zero predicate packs each row's non-zeros to
        # the front in ascending column order.
        order = np.argsort(dense == 0.0, axis=1, kind="stable")[:, :width]
        valid = np.arange(width)[None, :] < row_nnz[:, None]
        vals = np.where(valid, np.take_along_axis(dense, order, axis=1), 0.0)
        idxs = np.where(valid, order, 0)
        return {"values": vals, "indices": idxs, "valid": valid, "widths": widths}

    def transposed_trace(self, encoded: EncodedMatrix) -> Trace:
        """Transposed reads: every row-group re-fetched per block column.

        A compressed SDC row is directly addressable as a *whole*, but a
        single column's position inside it is data-dependent (it shifts
        with the row's earlier non-zeros).  Serving one transposed block
        row -- one stored block *column* -- therefore re-fetches every
        padded row-group in full, and the walk over transposed block rows
        repeats that for each block column of the stored matrix.
        """
        _, cols = encoded.shape
        bs = encoded.block_size
        n_block_cols = (cols + bs - 1) // bs
        forward = encoded.trace("forward")
        return Trace(np.tile(forward.addr, n_block_cols), np.tile(forward.nbytes, n_block_cols))

    @timed("formats.sdc.decode")
    def decode(self, encoded: EncodedMatrix) -> np.ndarray:
        rows, cols = encoded.shape
        dense = np.zeros((rows, cols))
        vals = encoded.arrays["values"]
        idxs = encoded.arrays["indices"]
        valid = encoded.arrays["valid"]
        row_ids = np.broadcast_to(np.arange(rows)[:, None], idxs.shape)
        dense[row_ids[valid], idxs[valid]] = vals[valid]
        return dense

    @staticmethod
    def padding_ratio(encoded: EncodedMatrix) -> float:
        """Fraction of stored value slots that are padding (redundant)."""
        stored = int(encoded.tables["widths"].sum())
        if stored == 0:
            return 0.0
        return 1.0 - encoded.nnz / stored
