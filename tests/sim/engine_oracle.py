"""Reference paths for the simulator's block extraction and cost models.

``sim.engine._block_costs`` prices each distinct segment vector with one
batched call of :meth:`repro.hw.dvpe.DVPE.block_costs_batch`, and
``sim.engine._codec_visible_and_elements`` counts codec cycles with
:func:`repro.formats.conversion.batch_conversion_cycles`.
:func:`block_costs_loop` and :func:`codec_visible_and_elements_loop`
are the loops those replaced: one :class:`DVPE` and one
:class:`CodecUnit` call per block.  ``sim.engine.block_segments`` and
the codec count every block from the packed mask
(``repro.core.blocks``); :func:`block_segments_sum` and
:func:`codec_visible_and_elements_gather` are the bodies they replaced:
an int64 copy of the mask summed over a 4-D block view, and a gather of
the COL blocks counted with ``np.count_nonzero``.  Each keeps its
engine counterpart's signature, so a test can install it in
``repro.sim.engine`` and run the whole ``simulate()`` on it.  They live
here only as test oracles; nothing in ``src/`` calls them.
"""

import math

import numpy as np

from repro.core.blocks import split_into_blocks
from repro.core.patterns import Direction
from repro.formats.conversion import batch_conversion_cycles
from repro.hw.codec import CodecUnit
from repro.hw.dvpe import DVPE
from repro.hw.mapping import BlockWork
from repro.sim.engine import CODEC_LANES


def block_costs_loop(row_counts, config) -> np.ndarray:
    """DVPE cycle cost of every block, one :meth:`DVPE.block_cost` each,
    plus ``config.row_overhead_cycles`` per non-empty row."""
    row_overhead = config.row_overhead_cycles
    pe = DVPE(
        lanes=config.lanes_per_pe,
        output_port_width=config.output_port_width,
        alternate_unit=config.alternate_unit,
        alternate_buffer_depth=config.alternate_buffer_depth,
        intra_block_mapping=config.intra_block_mapping,
    )
    costs = []
    for counts in row_counts:
        work = BlockWork(tuple(int(c) for c in counts), m=len(counts))
        cost = float(pe.block_cost(work))
        if row_overhead:
            cost += row_overhead * float((counts > 0).sum())
        costs.append(cost)
    return np.array(costs, dtype=np.float64)


def codec_visible_and_elements_loop(workload, config, dirs, overlap_cycles):
    """Visible codec cycles and converted elements, one block at a time.

    ``pe_cycles`` only moves ``CodecStats.visible_cycles``, which the
    engine never reads, so every block passes 0.
    """
    if not config.has_codec or workload.tbs is None:
        return 0, 0
    m = workload.m
    flat_blocks = split_into_blocks(workload.sparse_values, m).reshape(-1, m, m)
    codec = CodecUnit(lanes=m)
    conversion_cycles = 0
    converted = 0
    elements = 0
    for i, direction in enumerate(dirs):
        if direction != Direction.COL.value:
            continue
        stats = codec.process_block(flat_blocks[i], Direction.COL, pe_cycles=0)
        conversion_cycles += stats.conversion_cycles
        converted += stats.converted_blocks
        elements += stats.elements
    visible = int(math.ceil(max(0.0, conversion_cycles / CODEC_LANES - overlap_cycles)))
    if converted:
        visible += 2  # the final merge beat of the last converted block
    return visible, elements


def block_segments_sum(workload, config):
    """``(row_counts, directions)`` from an int64 copy of the mask."""
    m = workload.m
    if config.storage_format == "dense":
        n_br = -(-workload.shape[0] // m)
        n_bc = -(-workload.shape[1] // m)
        counts = np.full((n_br * n_bc, m), m, dtype=np.int64)
        dirs = np.full(n_br * n_bc, Direction.ROW.value, dtype=np.int64)
        return counts, dirs

    blocks = split_into_blocks(workload.mask.astype(np.int64), m)
    n_br, n_bc = blocks.shape[:2]
    row_counts = blocks.sum(axis=3).reshape(-1, m)

    if workload.tbs is not None:
        dirs = workload.tbs.block_direction.reshape(-1).copy()
    else:
        dirs = np.full(n_br * n_bc, Direction.ROW.value, dtype=np.int64)

    if workload.tbs is not None and not config.has_codec:
        col_blocks = dirs == Direction.COL.value
        if col_blocks.any():
            maxes = row_counts[col_blocks].max(axis=1, keepdims=True)
            row_counts = row_counts.copy()
            row_counts[col_blocks] = np.broadcast_to(maxes, (int(col_blocks.sum()), m))
    return row_counts, dirs


def codec_visible_and_elements_gather(workload, config, dirs, overlap_cycles):
    """Visible codec cycles and converted elements from gathered COL blocks."""
    if not config.has_codec or workload.tbs is None:
        return 0, 0
    m = workload.m
    occupancy = workload.mask & (workload.values != 0.0)
    flat_blocks = split_into_blocks(occupancy, m).reshape(-1, m, m)
    col_blocks = flat_blocks[dirs == Direction.COL.value]
    block_nnz = np.count_nonzero(col_blocks, axis=(1, 2))
    elements = int(block_nnz.sum())
    converted = block_nnz[block_nnz > 0]
    conversion_cycles = int(batch_conversion_cycles(converted).sum()) if converted.size else 0
    visible = int(math.ceil(max(0.0, conversion_cycles / CODEC_LANES - overlap_cycles)))
    if converted.size:
        visible += 2  # the final merge beat of the last converted block
    return visible, elements
