"""Per-row and per-block reference loops for the vectorized encodes.

:class:`repro.formats.CSRFormat`, :class:`repro.formats.SDCFormat` and
:class:`repro.formats.DDCFormat` pack their payloads and build their
forward traces with array operations.  The functions here are the loops
those replaced, one row or one block at a time.  Each takes
``(fmt, values, spec)`` like ``SparseFormat._encode``, so a test can
call it directly or install it in place of a format's ``_encode``.
:func:`infer_block_pattern` is the per-block N and direction inference
``ddc_encode_loop`` runs on each block's non-zero structure.  They live here only as a test oracle;
nothing in ``src/`` calls them.
"""

import math
from typing import List

import numpy as np

from repro.core.blocks import block_grid_shape, extract_block, iter_blocks
from repro.core.patterns import Direction
from repro.formats.base import (
    CSR_INDEX_BYTES,
    CSR_PTR_BYTES,
    DDC_INFO_BYTES,
    VALUE_BYTES,
    EncodedMatrix,
    Segment,
    Trace,
    apply_mask,
)
from repro.formats.ddc import DDC_INFO_DTYPE
from repro.formats.sdc import SDC_INDEX_BYTES


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


def csr_encode_loop(fmt, values, spec) -> EncodedMatrix:
    """CSR one row at a time; the trace one (block, row) run at a time."""
    dense = apply_mask(values, spec.mask)
    rows, cols = dense.shape
    block_size = spec.effective_block_size
    row_ptr = np.zeros(rows + 1, dtype=np.int64)
    col_idx_parts: List[np.ndarray] = []
    val_parts: List[np.ndarray] = []
    for r in range(rows):
        nz = np.nonzero(dense[r])[0]
        row_ptr[r + 1] = row_ptr[r] + nz.size
        col_idx_parts.append(nz)
        val_parts.append(dense[r, nz])
    col_idx = np.concatenate(col_idx_parts) if col_idx_parts else np.zeros(0, dtype=np.int64)
    vals = np.concatenate(val_parts) if val_parts else np.zeros(0)
    nnz = int(vals.size)

    # Each block reads, for each of its rows, the run of that row's
    # non-zeros whose columns fall inside the block.
    elem_bytes = VALUE_BYTES + CSR_INDEX_BYTES
    segments: List[Segment] = []
    for idx in iter_blocks(rows, cols, block_size):
        for r in range(idx.r0, idx.r0 + idx.height):
            lo, hi = int(row_ptr[r]), int(row_ptr[r + 1])
            row_cols = col_idx[lo:hi]
            start = lo + int(np.searchsorted(row_cols, idx.c0, side="left"))
            stop = lo + int(np.searchsorted(row_cols, idx.c0 + idx.width, side="left"))
            if stop > start:
                segments.append(Segment(start * elem_bytes, (stop - start) * elem_bytes))
    return EncodedMatrix(
        format_name=fmt.name,
        shape=(rows, cols),
        nnz=nnz,
        value_bytes=nnz * VALUE_BYTES,
        index_bytes=nnz * CSR_INDEX_BYTES,
        meta_bytes=(rows + 1) * CSR_PTR_BYTES,
        segments=Trace.of(segments),
        arrays={"row_ptr": row_ptr, "col_idx": col_idx, "values": vals},
    )


def sdc_encode_loop(fmt, values, spec) -> EncodedMatrix:
    """SDC one row, then one row group at a time."""
    dense = apply_mask(values, spec.mask)
    rows, cols = dense.shape
    block_size = spec.effective_block_size
    row_nnz = np.count_nonzero(dense, axis=1) if rows else np.zeros(0, dtype=int)
    group = fmt.group_rows or max(1, rows)
    widths = np.zeros(rows, dtype=row_nnz.dtype)
    for g0 in range(0, rows, group):
        widths[g0 : g0 + group] = row_nnz[g0 : g0 + group].max()
    width = int(widths.max()) if rows and cols else 0

    vals = np.zeros((rows, width))
    idxs = np.zeros((rows, width), dtype=np.int64)
    valid = np.zeros((rows, width), dtype=bool)
    for r in range(rows):
        nz = np.nonzero(dense[r])[0]
        vals[r, : nz.size] = dense[r, nz]
        idxs[r, : nz.size] = nz
        valid[r, : nz.size] = True

    # Whole padded row groups, streamed back to back in block-row order.
    segments: List[Segment] = []
    addr = 0
    for g0 in range(0, rows, block_size):
        nbytes = int(int(widths[g0 : g0 + block_size].sum()) * (VALUE_BYTES + SDC_INDEX_BYTES))
        if nbytes > 0:
            segments.append(Segment(addr, nbytes))
            addr += nbytes
    stored_slots = int(widths.sum())
    return EncodedMatrix(
        format_name=fmt.name,
        shape=(rows, cols),
        nnz=int(row_nnz.sum()),
        value_bytes=stored_slots * VALUE_BYTES,
        index_bytes=int(stored_slots * SDC_INDEX_BYTES),
        meta_bytes=0,
        segments=Trace.of(segments),
        arrays={"values": vals, "indices": idxs, "valid": valid, "widths": widths},
    )


def ddc_encode_loop(fmt, values, spec) -> EncodedMatrix:
    """DDC one block, then one lane at a time."""
    dense = apply_mask(values, spec.mask)
    rows, cols = dense.shape
    m = spec.effective_block_size
    tbs = spec.tbs
    n_br, n_bc = block_grid_shape(rows, cols, m)
    info = np.zeros(n_br * n_bc, dtype=DDC_INFO_DTYPE)
    payload_vals: List[np.ndarray] = []
    payload_idx: List[np.ndarray] = []
    for i, bidx in enumerate(iter_blocks(rows, cols, m)):
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

        info["direction"][i] = direction.value
        info["n"][i] = n
        payload_vals.append(vals.ravel())
        payload_idx.append(idxs.ravel())

    # The Info table, then each non-empty block's payload run: N values
    # per lane plus log2(M)-bit packed position indices.
    info_bytes = info.size * DDC_INFO_BYTES
    index_bits = max(1, int(math.ceil(math.log2(max(2, m)))))
    block_ptr = np.zeros(info.size + 1, dtype=np.int64)
    segments = [Segment(0, info_bytes)] if info_bytes else []
    value_bytes = index_bytes = offset = 0
    for i in range(info.size):
        count = m * int(info["n"][i])
        block_ptr[i + 1] = block_ptr[i] + count
        v_bytes = count * VALUE_BYTES
        i_bytes = -(-(count * index_bits) // 8)
        info["offset"][i] = offset
        if v_bytes + i_bytes:
            segments.append(Segment(info_bytes + offset, v_bytes + i_bytes))
        offset += v_bytes + i_bytes
        value_bytes += v_bytes
        index_bytes += i_bytes
    return EncodedMatrix(
        format_name=fmt.name,
        shape=(rows, cols),
        nnz=int(np.count_nonzero(dense)),
        value_bytes=value_bytes,
        index_bytes=index_bytes,
        meta_bytes=info_bytes,
        segments=Trace.of(segments),
        arrays={
            "info": info,
            "values": np.concatenate(payload_vals) if payload_vals else np.zeros(0),
            "indices": (
                np.concatenate(payload_idx) if payload_idx else np.zeros(0, dtype=np.int64)
            ),
            "block_ptr": block_ptr,
            "m": np.array(m),
        },
    )


#: Every format whose vectorized ``_encode`` has a loop oracle here.
ENCODE_ORACLES = {"csr": csr_encode_loop, "sdc": sdc_encode_loop, "ddc": ddc_encode_loop}
