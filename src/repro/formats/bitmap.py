"""Bitmap-compressed storage -- the RM-STC unstructured baseline format.

Unstructured accelerators (RM-STC, SIGMA) ship the non-zero values as a
packed stream plus a 1-bit-per-position occupancy bitmap.  Both streams
are perfectly contiguous, so bandwidth utilization is decent; the price
is the fixed ``rows * cols / 8`` bytes of bitmap regardless of sparsity
and the gather hardware needed to expand it (charged in the energy
model via ``datapath_energy_scale``).
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from ..perf import timed
from .base import VALUE_BYTES, EncodedMatrix, EncodeSpec, SparseFormat, Trace


class BitmapFormat(SparseFormat):
    """Packed non-zero stream + occupancy bitmap.

    Layout table: ``bitmap``, the occupancy itself.  Payload: ``values``,
    the non-zeros in row-major order.
    """

    name = "bitmap"

    def _layout(self, occupancy: np.ndarray, spec: EncodeSpec) -> EncodedMatrix:
        rows, cols = occupancy.shape
        nnz = int(np.count_nonzero(occupancy))
        bitmap_bytes = int(math.ceil(rows * cols / 8.0)) if rows * cols else 0
        value_bytes = nnz * VALUE_BYTES
        # Two streams back to back: the bitmap, then the packed values.
        addr = np.array([0, bitmap_bytes])
        nbytes = np.array([bitmap_bytes, value_bytes])
        segments = Trace(addr[nbytes > 0], nbytes[nbytes > 0])
        return EncodedMatrix(
            format_name=self.name,
            shape=(rows, cols),
            nnz=nnz,
            value_bytes=value_bytes,
            index_bytes=0,
            meta_bytes=bitmap_bytes,
            segments=segments,
            tables={"bitmap": occupancy},
        )

    def _gather(self, dense: np.ndarray, tables: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return {"bitmap": tables["bitmap"], "values": dense[tables["bitmap"]]}

    def transposed_trace(self, encoded: EncodedMatrix) -> Trace:
        """Transposed reads: bitmap stream, then per-element value picks.

        The bitmap itself is orientation-agnostic (it streams whole
        either way), but the packed value stream is ordered by the
        *stored* row-major rank, so consuming the transpose turns it into
        one 2-byte gather per non-zero, ordered by the transposed
        block-major walk.
        """
        occupancy = encoded.tables["bitmap"]
        bitmap_bytes = encoded.meta_bytes
        r, c = np.nonzero(occupancy)
        bs = encoded.block_size
        # np.nonzero is row-major = pack order, so a non-zero's position
        # in ``r``/``c`` is its rank in the value stream.
        ranks = np.lexsort((r, c, r // bs, c // bs))
        return Trace.after_header(
            bitmap_bytes, bitmap_bytes + ranks * VALUE_BYTES, np.full(r.size, VALUE_BYTES)
        )

    @timed("formats.bitmap.decode")
    def decode(self, encoded: EncodedMatrix) -> np.ndarray:
        rows, cols = encoded.shape
        dense = np.zeros((rows, cols))
        dense[encoded.arrays["bitmap"]] = encoded.arrays["values"]
        return dense
