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

:func:`convert_block` is the *functional* model -- it produces the exact
output schedule and cycle count; :mod:`repro.hw.codec` layers the
hardware accounting (queue occupancy, conflicts, energy) on top of it.
:func:`batch_conversion_cycles` is the cycle count alone, in closed
form, for the simulator.
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
    block_nnz: np.ndarray,
    in_width: int = 2,
    out_width: int = 2,
    threshold: int = 2,
) -> np.ndarray:
    """Conversion cycle counts of many COL-direction blocks at once.

    ``block_nnz`` holds one non-zero count per block, shape
    ``(n_blocks,)``; each block's count is :func:`convert_block`'s
    ``cycles`` on its column-major storage stream, which is
    ``max(ceil(nnz / in_width), ceil(nnz / out_width))`` in closed form.
    It needs ``threshold >= out_width``: a ready queue then holds at
    least ``out_width`` elements, so every beat emitted while the stream
    feeds in is full, and the flush adds the remaining
    ``ceil(nnz / out_width) - beats`` beats whatever the arbitration
    order or the number of queues.  Only the non-zero count of each
    block matters.  ``convert_block`` is the oracle
    (``tests/formats/test_conversion.py``).
    """
    if in_width < 1 or out_width < 1 or threshold < 1:
        raise ValueError("widths and threshold must be positive")
    if threshold < out_width:
        raise ValueError(
            f"threshold ({threshold}) below out_width ({out_width}) emits partial "
            "beats, which the closed-form cycle count does not model"
        )
    nnz = np.asarray(block_nnz, dtype=np.int64)
    if nnz.ndim != 1:
        raise ValueError(f"expected (n_blocks,) non-zero counts, got shape {nnz.shape}")
    if (nnz < 0).any():
        raise ValueError("non-zero counts must not be negative")
    return np.maximum(-(-nnz // in_width), -(-nnz // out_width))
