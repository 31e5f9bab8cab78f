"""Matrix-B Distribution unit (Sec. VI-A2, Fig. 10(b)).

The MBD unit gathers the rows of the dense operand B that the sparse
indices of A select, in the order the DVPEs consume them.  It is a MUX
array (16 8-to-1 multiplexers) plus a transpose array (four 8x8
transpose units); the C0-C2 multiplexers route a tile through the
transpose array *before* the MUX selection for column-major (independent
dimension) blocks and *after* it for row-major blocks, and C3 emits the
reorganised tile.

Functionally the unit is a gather + optional transpose; the cycle cost
is pipelined away (it runs one tile ahead of the DVPEs), so the model
tracks element counts for energy plus a correctness-checked functional
path used by the functional simulator tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.patterns import Direction

__all__ = ["MBDStats", "MBDUnit"]


@dataclass
class MBDStats:
    """Aggregated MBD activity."""

    mux_selections: int = 0
    transposed_tiles: int = 0


class MBDUnit:
    """Functional + accounting model of the MBD unit."""

    def __init__(self, mux_count: int = 16, transpose_units: int = 4, tile: int = 8):
        if mux_count < 1 or transpose_units < 1 or tile < 1:
            raise ValueError("invalid MBD parameters")
        self.mux_count = mux_count
        self.transpose_units = transpose_units
        self.tile = tile

    def gather(
        self,
        b_tile: np.ndarray,
        reduction_indices: Sequence[int],
        direction: Direction,
    ) -> tuple:
        """Select the B rows that A's non-zero columns touch.

        ``b_tile`` is the ``m x k`` slice of B aligned with one A block
        column; ``reduction_indices`` are the Rid values of the block's
        non-zeros in computation order.  Returns ``(gathered, stats)``
        where ``gathered`` has one B row per index.
        """
        b_tile = np.asarray(b_tile)
        if b_tile.ndim != 2:
            raise ValueError(f"expected a 2-D B tile, got {b_tile.shape}")
        indices = np.asarray(list(reduction_indices), dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= b_tile.shape[0]):
            raise ValueError("reduction index out of range for the B tile")
        stats = MBDStats(mux_selections=int(indices.size))
        work = b_tile
        if direction is Direction.COL:
            # Column-major blocks route through the transpose array so
            # the gathered rows arrive in DVPE lane order (C0-C2 path).
            stats.transposed_tiles = 1
        gathered = work[indices] if indices.size else np.zeros((0, b_tile.shape[1]))
        return gathered, stats
