"""The :class:`SimOptions` bundle -- ``simulate()``'s knobs beyond the
architecture and the workload.

What an architecture is (its fabric, its storage format, its metadata
ECC, its per-row overhead) lives in :class:`~repro.hw.config.ArchConfig`;
``SimOptions`` holds only what one call varies on a fixed design: the
weight precision, an injected fault and the consumption orientation.
It is immutable, picklable and hashable, so sweep cells ship it across
process boundaries and derive variants with :func:`dataclasses.replace`.

``simulate()`` takes no loose knob keywords: every knob is a field here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["SimOptions"]


@dataclass(frozen=True)
class SimOptions:
    """Every non-(config, workload) knob of one ``simulate()`` call.

    Defaults reproduce a plain fault-free FP16 simulation; see
    ``simulate()``'s docstring for each field's semantics.
    """

    #: Weight payload width; < 16 models quantized weights (Fig. 15(b)).
    weight_bits: int = 16
    #: Fault-injection target ('values' | 'indices' | 'metadata'), or None.
    fault: Optional[str] = None
    #: Seed for the injected flip (only read when ``fault`` is set).
    fault_seed: int = 0
    #: Consumption orientation of the A operand ('forward' |
    #: 'transposed').  'transposed' models the backward pass draining
    #: the transpose of the same stored encoding -- the format is never
    #: re-encoded, so formats whose layouts transpose poorly (CSR, SDC)
    #: pay their honest traffic penalty.
    orientation: str = "forward"

    _FAULT_TARGETS = ("values", "indices", "metadata")

    def __post_init__(self) -> None:
        if not 2 <= self.weight_bits <= 16:
            raise ValueError(f"weight_bits must be in [2, 16], got {self.weight_bits}")
        if self.fault is not None and self.fault not in self._FAULT_TARGETS:
            raise ValueError(
                f"fault must be one of {self._FAULT_TARGETS} or None, got {self.fault!r}"
            )
        from ..formats.base import ORIENTATIONS

        if self.orientation not in ORIENTATIONS:
            raise ValueError(
                f"orientation must be one of {ORIENTATIONS}, got {self.orientation!r}"
            )
