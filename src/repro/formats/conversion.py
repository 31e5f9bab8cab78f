"""Storage <-> computation format conversion (Sec. V-B, Fig. 9).

Reduction-dimension (row-wise) blocks are stored in exactly the order the
DVPEs consume them, so they need no conversion (Fig. 9(a)).  Independent-
dimension (column-wise) blocks are stored column-major to stay compact
but must be consumed row-major (Fig. 9(b)); the codec's queue group does
that reordering on the fly (Fig. 9(c)):

* every timestep it accepts ``in_width`` (2) elements, each tagged with
  its reduction-dimension index ``Rid``;
* elements land in the queue selected by their ``Rid`` group;
* as soon as a queue holds ``threshold`` (2) elements it emits them to
  the PE array (the merger network arbitrates when several queues are
  ready);
* at the final timestep the merger flushes whatever remains, combining
  partial queues into full output beats.

This module is the *functional* model -- it produces the exact output
schedule and cycle count; :mod:`repro.hw.codec` layers the hardware
accounting (queue occupancy, conflicts, energy) on top of it.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, List, Sequence

import numpy as np

from ..core.patterns import Direction
from ..perf import timed

__all__ = [
    "StorageElement",
    "ConversionSchedule",
    "convert_block",
    "block_storage_stream",
    "batch_conversion_cycles",
]


@dataclass(frozen=True)
class StorageElement:
    """One non-zero in storage order: value + its (Rid, Iid) coordinates."""

    value: float
    rid: int  # index along the reduction dimension (block column)
    iid: int  # index along the independent dimension (block row)


@dataclass
class ConversionSchedule:
    """Result of converting one block from storage to computation format."""

    outputs: List[List[StorageElement]] = field(default_factory=list)
    input_cycles: int = 0
    flush_cycles: int = 0
    max_queue_depth: int = 0
    conflicts: int = 0  # timesteps where >1 queue was ready (merger work)

    @property
    def cycles(self) -> int:
        return max(self.input_cycles, len(self.outputs))

    @property
    def elements_out(self) -> int:
        return sum(len(beat) for beat in self.outputs)


def block_storage_stream(block: np.ndarray, direction: Direction) -> List[StorageElement]:
    """Elements of one block in storage order.

    ROW blocks are stored row-major (their storage order already matches
    computation order); COL blocks are stored column-major.
    """
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise ValueError(f"expected a square block, got shape {block.shape}")
    elements: List[StorageElement] = []
    if direction is Direction.ROW:
        for i, j in zip(*np.nonzero(block)):
            elements.append(StorageElement(float(block[i, j]), rid=int(j), iid=int(i)))
    else:
        for j, i in zip(*np.nonzero(block.T)):
            elements.append(StorageElement(float(block[i, j]), rid=int(j), iid=int(i)))
    return elements


def convert_block(
    stream: Sequence[StorageElement],
    n_queues: int = 8,
    in_width: int = 2,
    out_width: int = 2,
    threshold: int = 2,
) -> ConversionSchedule:
    """Simulate the queue-group conversion of one block's element stream.

    The computation format groups elements by their independent-dimension
    index (``Iid``), i.e. by the output row the PE accumulates into;
    queues are selected by ``Iid % n_queues``.

    Returns the per-timestep output beats plus occupancy statistics.
    """
    if in_width < 1 or out_width < 1 or threshold < 1:
        raise ValueError("widths and threshold must be positive")
    queues: "OrderedDict[int, Deque[StorageElement]]" = OrderedDict(
        (q, deque()) for q in range(n_queues)
    )
    schedule = ConversionSchedule()
    pending = deque(stream)

    while pending:
        # Input stage: accept up to in_width elements this timestep.
        for _ in range(min(in_width, len(pending))):
            element = pending.popleft()
            queues[element.iid % n_queues].append(element)
        schedule.input_cycles += 1
        schedule.max_queue_depth = max(
            schedule.max_queue_depth, max(len(q) for q in queues.values())
        )
        # Output stage: emit from one ready queue (merger arbitration).
        ready = [q for q in queues.values() if len(q) >= threshold]
        if len(ready) > 1:
            schedule.conflicts += 1
        if ready:
            beat = [ready[0].popleft() for _ in range(min(out_width, len(ready[0])))]
            schedule.outputs.append(beat)

    # Final flush: the merger combines remaining elements across queues.
    leftovers: List[StorageElement] = []
    for q in queues.values():
        leftovers.extend(q)
    while leftovers:
        beat, leftovers = leftovers[:out_width], leftovers[out_width:]
        schedule.outputs.append(beat)
        schedule.flush_cycles += 1
    return schedule


@timed("hw.codec")
def batch_conversion_cycles(
    blocks: np.ndarray,
    n_queues: int,
    in_width: int = 2,
    out_width: int = 2,
    threshold: int = 2,
) -> np.ndarray:
    """Conversion cycle counts of many COL-direction blocks at once.

    Emulates :func:`convert_block` on the column-major storage stream of
    every ``(m, m)`` block in ``blocks`` (shape ``(n_blocks, m, m)``)
    simultaneously: per timestep, each block accepts ``in_width``
    elements into its queues (selected by ``Iid % n_queues``), and the
    first ready queue (lowest index with >= ``threshold`` elements, the
    merger's arbitration order) emits one beat of <= ``out_width``.
    Leftovers flush in ``ceil(remaining / out_width)`` combined beats.

    Only the cycle count (``max(input_cycles, output_beats)``) is
    produced -- the element schedule itself is not materialised, which
    is what makes the batching worthwhile.  Bit-exact with the scalar
    path: the per-block :class:`repro.hw.codec.CodecUnit` loop in
    ``tests/sim/engine_oracle.py`` is its oracle.
    """
    if in_width < 1 or out_width < 1 or threshold < 1:
        raise ValueError("widths and threshold must be positive")
    blocks = np.asarray(blocks)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ValueError(f"expected (n_blocks, m, m) blocks, got {blocks.shape}")
    n_blocks = blocks.shape[0]
    if n_blocks == 0:
        return np.zeros(0, dtype=np.int64)

    # Column-major storage stream: nonzero coordinates of block.T in
    # (rid, iid) lexicographic order; the queue key is the row index iid.
    transposed_nz = blocks.transpose(0, 2, 1) != 0
    b_idx, _, i_idx = np.nonzero(transposed_nz)
    nnz = transposed_nz.sum(axis=(1, 2)).astype(np.int64)
    stream_len = int(nnz.max()) if nnz.size else 0
    offsets = np.concatenate([[0], np.cumsum(nnz)[:-1]])
    position = np.arange(b_idx.size) - offsets[b_idx]
    iids = np.zeros((n_blocks, max(stream_len, 1)), dtype=np.int64)
    iids[b_idx, position] = i_idx

    input_cycles = -(-nnz // in_width)
    horizon = int(input_cycles.max()) if nnz.size else 0
    queue_len = np.zeros((n_blocks, n_queues), dtype=np.int64)
    consumed = np.zeros(n_blocks, dtype=np.int64)
    beats = np.zeros(n_blocks, dtype=np.int64)
    emitted = np.zeros(n_blocks, dtype=np.int64)
    rows = np.arange(n_blocks)
    for t in range(horizon):
        # A block participates in a timestep only while its stream is
        # still feeding in (convert_block loops exactly input_cycles
        # times; flush happens afterwards).
        active = t < input_cycles
        # Input stage: accept up to in_width elements per block.
        for w in range(in_width):
            src = consumed + w
            ok = active & (src < nnz)
            queues = iids[rows, np.minimum(src, stream_len - 1)] % n_queues
            np.add.at(queue_len, (rows[ok], queues[ok]), 1)
        consumed = np.where(active, np.minimum(consumed + in_width, nnz), consumed)
        # Output stage: one beat from the first ready queue per block
        # (the merger arbitrates lowest queue index first).
        ready = queue_len >= threshold
        any_ready = ready.any(axis=1) & active
        first = np.argmax(ready, axis=1)
        beat = np.minimum(out_width, queue_len[rows, first])
        take = np.where(any_ready, beat, 0)
        queue_len[rows, first] -= take
        beats += any_ready
        emitted += take

    flush_beats = -(-(nnz - emitted) // out_width)
    return np.maximum(input_cycles, beats + flush_beats)
