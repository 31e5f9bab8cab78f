"""Diverse Vector PE with configurable reduction nodes and alternate unit.

A DVPE (Fig. 10(a)) is an ``lanes``-wide FP16 multiplier array feeding a
tree of reduction nodes.  Each node either *accumulates* its two inputs
or *transmits* them unchanged, which is what lets one issue group carry
several concatenated segments (intra-block mapping) and still produce
separate partial sums.

The alternate unit buffers result beats when an issue group closes more
segments than the output port can drain in one cycle, trading a small
buffer for not stalling the multiplier array (Sec. VI-A1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs.state import enabled as _obs_enabled
from ..perf import timed
from .mapping import BlockWork, MappedSchedule, map_balanced, map_naive

__all__ = ["DVPEResult", "DVPE"]


@dataclass(frozen=True)
class DVPEResult:
    """Execution summary of one block on one DVPE."""

    compute_cycles: int
    stall_cycles: int
    macs: int
    results: int
    max_buffer_occupancy: int

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.stall_cycles


class DVPE:
    """Cycle model of one Diverse Vector PE."""

    def __init__(
        self,
        lanes: int = 8,
        output_port_width: int = 2,
        alternate_unit: bool = True,
        alternate_buffer_depth: int = 8,
        intra_block_mapping: bool = True,
    ):
        if lanes < 1 or output_port_width < 1 or alternate_buffer_depth < 0:
            raise ValueError("invalid DVPE parameters")
        self.lanes = lanes
        self.output_port_width = output_port_width
        self.alternate_unit = alternate_unit
        self.alternate_buffer_depth = alternate_buffer_depth
        self.intra_block_mapping = intra_block_mapping

    def schedule(self, work: BlockWork) -> MappedSchedule:
        mapper = map_balanced if self.intra_block_mapping else map_naive
        return mapper(work, self.lanes)

    def execute(self, work: BlockWork) -> DVPEResult:
        """Run one block through the multiplier array and output stage.

        Output pressure: each cycle may complete several segments but the
        port drains only ``output_port_width`` results.  With the
        alternate unit the excess parks in the buffer (stalling only on
        overflow); without it the multiplier array stalls immediately.
        """
        sched = self.schedule(work)
        buffer_occ = 0
        max_occ = 0
        stalls = 0
        for produced in sched.outputs_per_cycle:
            buffer_occ += produced
            drained = min(self.output_port_width, buffer_occ)
            buffer_occ -= drained
            capacity = self.alternate_buffer_depth if self.alternate_unit else 0
            while buffer_occ > capacity:
                stalls += 1
                drain = min(self.output_port_width, buffer_occ)
                buffer_occ -= drain
            max_occ = max(max_occ, buffer_occ)
        # Drain whatever is still buffered after the last issue group.
        while buffer_occ > 0:
            stalls += 1
            buffer_occ -= min(self.output_port_width, buffer_occ)
        # The final drain overlaps the next block's first cycles when the
        # alternate unit exists; count it as stall only without it.
        if self.alternate_unit:
            stalls = max(0, stalls - (max_occ // self.output_port_width))
        return DVPEResult(
            compute_cycles=sched.num_cycles,
            stall_cycles=stalls,
            macs=sched.macs,
            results=sum(sched.outputs_per_cycle),
            max_buffer_occupancy=max_occ,
        )

    def block_cost(self, work: BlockWork) -> int:
        """Cycles to execute one block (the scheduler's cost metric)."""
        return self.execute(work).total_cycles

    @timed("hw.dvpe")
    def block_costs_batch(self, row_counts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`block_cost` over ``(n_blocks, m)`` segments.

        Reproduces :meth:`execute`'s output-buffer recurrence for *all*
        blocks at once: per issue-group timestep, completions arrive
        (``map_balanced`` closes a segment in the cycle its last element
        is packed into), the port drains ``output_port_width`` results,
        and overflow past the alternate buffer stalls in
        ``ceil(excess / port)`` steps.  Bit-exact with the scalar
        :meth:`block_cost` and with the per-block loop oracle in
        ``tests/sim/engine_oracle.py`` (see
        ``tests/sim/test_vectorized_equivalence.py``).
        """
        counts = np.asarray(row_counts, dtype=np.int64)
        if counts.ndim != 2:
            raise ValueError(f"expected (n_blocks, m) counts, got {counts.shape}")
        n_blocks = counts.shape[0]
        if _obs_enabled():
            obs_metrics.counter_add("hw.dvpe.batches")
            obs_metrics.counter_add("hw.dvpe.blocks_costed", int(n_blocks))
        lanes = self.lanes
        if not self.intra_block_mapping:
            # Naive mapping: one segment per issue group, so at most one
            # completion per cycle -- the port (width >= 1) drains it
            # immediately and no stall is ever taken.
            return -(-counts // lanes).sum(axis=1)

        nnz = counts.sum(axis=1)
        num_cycles = -(-nnz // lanes)
        horizon = int(num_cycles.max()) if n_blocks else 0
        if horizon == 0:
            return np.zeros(n_blocks, dtype=np.int64)

        # Segment completions per cycle: segment s of block b completes in
        # the cycle holding its last packed element.  One bincount over
        # flat (cycle, block) slots builds the whole histogram, cycle-major
        # so each timestep below reads one contiguous row.
        ends = np.cumsum(counts, axis=1)
        has_work = counts > 0
        block_ids = np.broadcast_to(np.arange(n_blocks)[:, None], counts.shape)
        slots = (ends[has_work] - 1) // lanes * n_blocks + block_ids[has_work]
        produced = np.bincount(slots, minlength=horizon * n_blocks).reshape(
            horizon, n_blocks
        )

        port = self.output_port_width
        capacity = self.alternate_buffer_depth if self.alternate_unit else 0
        occ = np.zeros(n_blocks, dtype=np.int64)
        stalls = np.zeros(n_blocks, dtype=np.int64)
        max_occ = np.zeros(n_blocks, dtype=np.int64)
        for t in range(horizon):
            active = t < num_cycles
            level = occ + produced[t]
            level -= np.minimum(port, level)
            excess = np.maximum(level - capacity, 0)
            extra_drains = -(-excess // port)
            level = np.maximum(level - extra_drains * port, 0)
            occ = np.where(active, level, occ)
            stalls += np.where(active, extra_drains, 0)
            max_occ = np.maximum(max_occ, np.where(active, level, 0))
        # Drain whatever is still buffered after the last issue group.
        stalls += -(-occ // port)
        if self.alternate_unit:
            stalls = np.maximum(0, stalls - max_occ // port)
        return num_cycles + stalls
