"""Per-block reference loops for the simulator's batched cost models.

``sim.engine._block_costs`` prices every block with one batched call of
:meth:`repro.hw.dvpe.DVPE.block_costs_batch`, and
``sim.engine._codec_visible_and_elements`` counts codec cycles with
:func:`repro.formats.conversion.batch_conversion_cycles`.  The
functions here are the loops those replaced: one :class:`DVPE` and one
:class:`CodecUnit` call per block.  Each keeps its engine counterpart's
signature, so a test can install it in ``repro.sim.engine`` and run the
whole ``simulate()`` on the loops.  They live here only as a test
oracle; nothing in ``src/`` calls them.
"""

import math

import numpy as np

from repro.core.blocks import split_into_blocks
from repro.core.patterns import Direction
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
