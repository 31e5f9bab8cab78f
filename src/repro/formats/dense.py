"""Dense (uncompressed) storage -- the Tensor Core baseline format."""

from __future__ import annotations

from typing import Dict

import numpy as np

from .base import VALUE_BYTES, EncodedMatrix, EncodeSpec, SparseFormat, Trace


class DenseFormat(SparseFormat):
    """Row-major dense layout.

    Perfectly contiguous and redundancy-free *as a byte stream*, but the
    stream carries every zero, so the sparse-compute "useful fraction" of
    its traffic equals the matrix density.

    No layout table: the shape fixes both traces.  Payload: ``dense``,
    the whole masked matrix.
    """

    name = "dense"

    def _layout(self, occupancy: np.ndarray, spec: EncodeSpec) -> EncodedMatrix:
        rows, cols = occupancy.shape
        nbytes = rows * cols * VALUE_BYTES
        # One streaming segment: the whole matrix, row-major.
        segments = Trace([0], [nbytes]) if nbytes else Trace()
        return EncodedMatrix(
            format_name=self.name,
            shape=(rows, cols),
            nnz=int(np.count_nonzero(occupancy)),
            value_bytes=nbytes,
            index_bytes=0,
            meta_bytes=0,
            segments=segments,
            tables={},
        )

    def _gather(self, dense: np.ndarray, tables: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return {"dense": dense.copy()}

    def transposed_trace(self, encoded: EncodedMatrix) -> Trace:
        """Column-block-major reads of the row-major layout.

        Same total bytes as the forward stream, but the transposed pass
        walks block columns, so each block contributes one short segment
        per row instead of one whole-matrix stream -- row-major dense
        fragments badly when consumed sideways.
        """
        rows, cols = encoded.shape
        if rows == 0 or cols == 0:
            return Trace()
        c0 = np.arange(0, cols, encoded.block_size, dtype=np.int64)
        widths = np.minimum(encoded.block_size, cols - c0)
        # Block column outer, row inner.
        addr = (np.arange(rows, dtype=np.int64)[None, :] * cols + c0[:, None]) * VALUE_BYTES
        return Trace(addr.ravel(), np.repeat(widths * VALUE_BYTES, rows))

    def decode(self, encoded: EncodedMatrix) -> np.ndarray:
        return encoded.arrays["dense"].copy()
