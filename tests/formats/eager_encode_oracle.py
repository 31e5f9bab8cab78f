"""The eager encodes that the layout/payload split replaced.

Each registered format used to build its whole encoding in one
``_encode(values, spec)``: it masked the values, packed the payload and
derived the layout from the packed matrix, all at once.  The formats now
build the layout from the occupancy and gather the payload on the first
read of ``EncodedMatrix.arrays``.  The functions here are the one-pass
bodies they replaced, unchanged but for taking the format as ``fmt``, so
a test can compare every layout field before the gather and every array
after it.  Each takes ``(fmt, values, spec)`` like the old
``SparseFormat._encode``.  They live here only as a test oracle; nothing
in ``src/`` calls them.
"""

import math

import numpy as np

from repro.core.blocks import block_grid_shape, split_into_blocks
from repro.core.patterns import Direction
from repro.formats.base import (
    CSR_INDEX_BYTES,
    CSR_PTR_BYTES,
    DDC_INFO_BYTES,
    VALUE_BYTES,
    EncodedMatrix,
    EncodeSpec,
    Trace,
    apply_mask,
)
from repro.formats.bcsrcoo import BCSRCOO_BLOCK_META_BYTES, _payload_offsets
from repro.formats.ddc import DDC_INFO_DTYPE, _index_bytes, _pack_lanes
from repro.formats.sdc import SDC_INDEX_BYTES


def dense_encode(fmt, values, spec) -> EncodedMatrix:
    dense = apply_mask(values, spec.mask)
    rows, cols = dense.shape
    nbytes = rows * cols * VALUE_BYTES
    segments = Trace([0], [nbytes]) if nbytes else Trace()
    return EncodedMatrix(
        format_name=fmt.name,
        shape=(rows, cols),
        nnz=int(np.count_nonzero(dense)),
        value_bytes=nbytes,
        index_bytes=0,
        meta_bytes=0,
        segments=segments,
        arrays={"dense": dense.copy()},
    )


def csr_encode(fmt, values, spec) -> EncodedMatrix:
    mask, block_size = spec.mask, spec.effective_block_size
    dense = apply_mask(values, mask)
    rows, cols = dense.shape
    r_idx, col_idx = np.nonzero(dense)
    row_ptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(r_idx, minlength=rows), out=row_ptr[1:])
    col_idx = col_idx.astype(np.int64, copy=False)
    vals = dense[r_idx, col_idx]
    nnz = int(vals.size)
    segments = fmt._block_major_trace(row_ptr, col_idx, rows, block_size)
    return EncodedMatrix(
        format_name=fmt.name,
        shape=(rows, cols),
        nnz=nnz,
        value_bytes=nnz * VALUE_BYTES,
        index_bytes=nnz * CSR_INDEX_BYTES,
        meta_bytes=(rows + 1) * CSR_PTR_BYTES,
        segments=segments,
        arrays={"row_ptr": row_ptr, "col_idx": col_idx, "values": vals},
    )


def sdc_encode(fmt, values, spec) -> EncodedMatrix:
    mask, block_size = spec.mask, spec.effective_block_size
    dense = apply_mask(values, mask)
    rows, cols = dense.shape
    row_nnz = np.count_nonzero(dense, axis=1) if rows else np.zeros(0, dtype=int)
    group = fmt.group_rows or max(1, rows)
    starts = np.arange(0, rows, group)
    widths = np.repeat(np.maximum.reduceat(row_nnz, starts), np.diff(starts, append=rows))
    width = int(widths.max()) if rows and cols else 0

    order = np.argsort(dense == 0.0, axis=1, kind="stable")[:, :width]
    valid = np.arange(width)[None, :] < row_nnz[:, None]
    vals = np.where(valid, np.take_along_axis(dense, order, axis=1), 0.0)
    idxs = np.where(valid, order, 0)

    nnz = int(row_nnz.sum())
    stored_slots = int(widths.sum())
    group_slots = np.add.reduceat(widths, np.arange(0, rows, block_size))
    group_bytes = (group_slots * (VALUE_BYTES + SDC_INDEX_BYTES)).astype(np.int64)
    group_addr = np.cumsum(group_bytes) - group_bytes
    keep = group_bytes > 0
    segments = Trace(group_addr[keep], group_bytes[keep])
    return EncodedMatrix(
        format_name=fmt.name,
        shape=(rows, cols),
        nnz=nnz,
        value_bytes=stored_slots * VALUE_BYTES,
        index_bytes=int(stored_slots * SDC_INDEX_BYTES),
        meta_bytes=0,
        segments=segments,
        arrays={"values": vals, "indices": idxs, "valid": valid, "widths": widths},
    )


def ddc_encode(fmt, values, spec) -> EncodedMatrix:
    mask, tbs = spec.mask, spec.tbs
    dense = apply_mask(values, mask)
    rows, cols = dense.shape
    m = spec.effective_block_size
    n_br, n_bc = block_grid_shape(rows, cols, m)
    info = np.zeros(n_br * n_bc, dtype=DDC_INFO_DTYPE)

    flat = split_into_blocks(dense, m).reshape(-1, m, m)
    if tbs is not None:
        info["n"] = tbs.block_n.reshape(-1)
        info["direction"] = tbs.block_direction.reshape(-1)
        dir_row = info["direction"] == Direction.ROW.value
    else:
        row_counts = np.count_nonzero(flat, axis=2)
        col_counts = np.count_nonzero(flat, axis=1)
        row_max = row_counts.max(axis=1)
        col_max = col_counts.max(axis=1)
        row_uniform = ((row_counts == 0) | (row_counts == row_max[:, None])).all(axis=1)
        col_uniform = ((col_counts == 0) | (col_counts == col_max[:, None])).all(axis=1)
        dir_row = row_uniform | (~col_uniform & (row_max <= col_max))
        info["n"] = np.where(dir_row, row_max, col_max)
        info["direction"] = np.where(dir_row, Direction.ROW.value, Direction.COL.value)
    work = np.where(dir_row[:, None, None], flat, flat.transpose(0, 2, 1))
    flat_vals, flat_idx = _pack_lanes(work, info["n"])

    count = m * info["n"]
    block_ptr = np.zeros(info.size + 1, dtype=np.int64)
    np.cumsum(count, out=block_ptr[1:])
    v_bytes = count * VALUE_BYTES
    i_bytes = _index_bytes(count, m)
    blk_bytes = v_bytes + i_bytes
    info["offset"] = np.cumsum(blk_bytes) - blk_bytes
    info_bytes = info.size * DDC_INFO_BYTES
    stored = blk_bytes > 0
    segments = Trace.after_header(
        info_bytes, info_bytes + info["offset"][stored], blk_bytes[stored]
    )
    return EncodedMatrix(
        format_name=fmt.name,
        shape=(rows, cols),
        nnz=int(np.count_nonzero(dense)),
        value_bytes=int(v_bytes.sum()),
        index_bytes=int(i_bytes.sum()),
        meta_bytes=info_bytes,
        segments=segments,
        arrays={
            "info": info,
            "values": flat_vals,
            "indices": flat_idx,
            "block_ptr": block_ptr,
            "m": np.array(m),
        },
    )


def bitmap_encode(fmt, values, spec) -> EncodedMatrix:
    dense = apply_mask(values, spec.mask)
    rows, cols = dense.shape
    occupancy = dense != 0.0
    nz_values = dense[occupancy]
    nnz = int(nz_values.size)
    bitmap_bytes = int(math.ceil(rows * cols / 8.0)) if rows * cols else 0
    value_bytes = nnz * VALUE_BYTES
    addr = np.array([0, bitmap_bytes])
    nbytes = np.array([bitmap_bytes, value_bytes])
    segments = Trace(addr[nbytes > 0], nbytes[nbytes > 0])
    return EncodedMatrix(
        format_name=fmt.name,
        shape=(rows, cols),
        nnz=nnz,
        value_bytes=value_bytes,
        index_bytes=0,
        meta_bytes=bitmap_bytes,
        segments=segments,
        arrays={"bitmap": occupancy, "values": nz_values},
    )


def bcsrcoo_encode(fmt, values, spec) -> EncodedMatrix:
    dense = apply_mask(values, spec.mask)
    rows, cols = dense.shape
    m = spec.effective_block_size
    n_block_rows, _ = block_grid_shape(rows, cols, m)

    blocks = split_into_blocks(dense, m)
    occ = blocks != 0.0
    block_nnz = np.count_nonzero(occ, axis=(2, 3))
    stored = block_nnz > 0
    row_idx, col_idx = np.nonzero(stored)
    row_ptr = np.zeros(n_block_rows + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(stored, axis=1), out=row_ptr[1:])
    nnz_arr = block_nnz[stored]
    nblk = nnz_arr.size
    block_ptr = np.zeros(nblk + 1, dtype=np.int64)
    np.cumsum(nnz_arr, out=block_ptr[1:])
    vals = blocks[occ]
    bitmaps = occ[stored]
    t_order = np.lexsort((row_idx, col_idx))

    nnz = int(nnz_arr.sum())
    bitmap_block_bytes = int(math.ceil(m * m / 8.0))
    value_bytes = nnz * VALUE_BYTES
    index_bytes = nblk * bitmap_block_bytes
    meta_bytes = (n_block_rows + 1) * CSR_PTR_BYTES + nblk * BCSRCOO_BLOCK_META_BYTES
    offsets = _payload_offsets(meta_bytes, block_ptr, m)
    segments = Trace.after_header(meta_bytes, offsets[:-1], np.diff(offsets))
    return EncodedMatrix(
        format_name=fmt.name,
        shape=(rows, cols),
        nnz=nnz,
        value_bytes=value_bytes,
        index_bytes=index_bytes,
        meta_bytes=meta_bytes,
        segments=segments,
        arrays={
            "row_ptr": row_ptr,
            "row_idx": row_idx,
            "col_idx": col_idx,
            "block_ptr": block_ptr,
            "t_order": t_order,
            "bitmaps": bitmaps,
            "values": vals,
            "m": np.array(m),
        },
    )


#: Every registered format's eager encode, by format name.
EAGER_ENCODES = {
    "dense": dense_encode,
    "csr": csr_encode,
    "sdc": sdc_encode,
    "ddc": ddc_encode,
    "bitmap": bitmap_encode,
    "bcsrcoo": bcsrcoo_encode,
}


def as_encode(oracle):
    """An ``encode`` method that runs ``oracle(fmt, values, spec)`` eagerly.

    Installing it on a format class (``monkeypatch.setattr(cls, "encode",
    as_encode(oracle))``) routes every caller -- ``simulate()`` included
    -- through the oracle.
    """

    def encode(self, values, spec=None):
        if spec is None:
            spec = EncodeSpec()
        encoded = oracle(self, values, spec)
        encoded.orientation = spec.orientation
        encoded.block_size = spec.effective_block_size
        return encoded

    return encode


def eager_encode(fmt, values, spec=None) -> EncodedMatrix:
    """``fmt.encode(values, spec)`` as the eager body computed it."""
    return as_encode(EAGER_ENCODES[fmt.name])(fmt, values, spec)
