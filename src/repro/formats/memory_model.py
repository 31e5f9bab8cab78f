"""Memory-traffic analysis of the storage formats (Challenge-2, Fig. 7).

Given an :class:`~repro.formats.base.EncodedMatrix` this module derives
the quantities the paper uses to compare formats:

* **fetched bytes** -- the consumption-order trace, with address-adjacent
  segments coalesced (a streaming prefetch) and every remaining segment
  rounded up to the DRAM burst granularity;
* **useful bytes** -- the information-theoretic floor for moving the
  sparse operand: the non-zero values plus minimally packed position
  indices and per-block metadata;
* **bandwidth utilization** -- useful / fetched, the fraction of bus
  traffic that does real work.

The paper's headline numbers fall out of these definitions: SDC wastes
>61.54% of its traffic on alignment padding, CSR's scattered short
segments push utilization below 38.2%, and DDC recovers both losses for
an average 1.47x utilization gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from ..perf import timed
from .base import DDC_INFO_BYTES, VALUE_BYTES, EncodedMatrix, EncodeSpec, merge_contiguous

__all__ = [
    "TrafficReport",
    "traffic_report",
    "compare_formats",
    "useful_bytes_floor",
]

#: Default DRAM burst (minimum transfer) granularity in bytes.
DEFAULT_BURST_BYTES = 32


@dataclass(frozen=True)
class TrafficReport:
    """Bandwidth accounting for one encoded matrix."""

    format_name: str
    useful_bytes: int
    fetched_bytes: int
    num_bursts: int
    num_segments: int
    #: Check-bit bytes travelling with protected metadata (0 when the
    #: architecture runs unprotected; see :mod:`repro.faults.ecc`).
    ecc_bytes: int = 0

    @property
    def bandwidth_utilization(self) -> float:
        if self.fetched_bytes == 0:
            return 1.0
        return min(1.0, self.useful_bytes / self.fetched_bytes)

    @property
    def redundancy_ratio(self) -> float:
        """Fraction of fetched traffic that is not useful."""
        return 1.0 - self.bandwidth_utilization


def useful_bytes_floor(encoded: EncodedMatrix, m: int = 8) -> int:
    """Minimal bytes needed to move the sparse operand.

    Non-zero FP16 values, log2(M)-bit packed position indices, and a
    16-bit per-block descriptor.  The dense format needs no indices (its
    positions are implicit), so its floor is the values alone.
    """
    if encoded.format_name == "dense":
        return encoded.nnz * VALUE_BYTES
    bits_per_index = max(1, int(math.ceil(math.log2(max(2, m)))))
    index_bytes = int(math.ceil(encoded.nnz * bits_per_index / 8.0))
    rows, cols = encoded.shape
    n_blocks = (-(-rows // m)) * (-(-cols // m))
    return encoded.nnz * VALUE_BYTES + index_bytes + n_blocks * DDC_INFO_BYTES


#: How many address-adjacent segments each format's consumer can fuse
#: into one streaming transfer.  Dense/SDC are fully streamable; DDC's
#: inter-block scheduler exploits the locality of *consecutive* blocks
#: (Sec. VI-B1), so short runs of block payloads fuse; CSR's fragments
#: land at unrelated addresses, so nothing fuses.
_MERGE_WINDOW = {
    "dense": None,
    "sdc": None,
    "ddc": 8,
    "csr": 1,
    "bitmap": None,
    # BCSR-COO payloads are back to back: the forward walk fuses into one
    # stream, and the transposed walk fuses wherever t_order happens to
    # visit address-adjacent blocks.
    "bcsrcoo": None,
}


@timed("formats.traffic")
def traffic_report(
    encoded: EncodedMatrix,
    burst_bytes: int = DEFAULT_BURST_BYTES,
    m: int = 8,
    ecc=None,
    orientation: Optional[str] = None,
) -> TrafficReport:
    """Analyse one encoded matrix's consumption trace.

    ``orientation`` selects which pass's trace is analysed ('forward' |
    'transposed'); ``None`` uses the matrix's encoded orientation.  The
    transposed trace is derived from the same encoding -- nothing is
    re-encoded.

    ``ecc`` (an :class:`repro.faults.ecc.ECCConfig`) charges the
    metadata check bits as extra fetched traffic: protection is not
    free, and the protected-vs-unprotected delta is exactly what the
    fault campaigns trade against their coverage numbers.
    """
    if burst_bytes < 1:
        raise ValueError(f"burst_bytes must be positive, got {burst_bytes}")
    window = _MERGE_WINDOW.get(encoded.format_name)
    merged = merge_contiguous(encoded.trace(orientation), window)
    # A segment not starting on a burst boundary drags in the head of its
    # first burst too; a zero-length segment fetches nothing.
    first = merged.addr - merged.addr % burst_bytes
    spans = merged.end - first
    bursts = np.where(merged.nbytes > 0, -(-spans // burst_bytes), 0)
    num_bursts = int(bursts.sum())
    fetched = num_bursts * burst_bytes
    useful = useful_bytes_floor(encoded, m=m)
    ecc_bytes = 0
    if ecc is not None and getattr(ecc, "enabled", False):
        from ..faults.ecc import ecc_overhead_bytes

        ecc_bytes = ecc_overhead_bytes(encoded.meta_bytes, ecc)
        if ecc_bytes:
            extra_bursts = -(-ecc_bytes // burst_bytes)
            num_bursts += extra_bursts
            fetched += extra_bursts * burst_bytes
    return TrafficReport(
        format_name=encoded.format_name,
        useful_bytes=useful,
        fetched_bytes=fetched,
        num_bursts=num_bursts,
        num_segments=len(merged),
        ecc_bytes=ecc_bytes,
    )


def _default_formats() -> list:
    """One instance of every registered format, in registry order."""
    from .registry import available_formats, get_format

    return [get_format(name) for name in available_formats()]


def compare_formats(
    values: np.ndarray,
    mask: Optional[np.ndarray] = None,
    tbs=None,
    block_size: int = 8,
    burst_bytes: int = DEFAULT_BURST_BYTES,
    formats: Optional[Iterable] = None,
    orientation: Optional[str] = None,
) -> Dict[str, TrafficReport]:
    """Encode one matrix in every format and report per-format traffic.

    This is the experiment behind Fig. 7 and the 1.47x claim: encode a
    TBS-pruned matrix in every registered format and compare bandwidth
    utilization.  ``orientation`` analyses the forward (default) or
    transposed consumption trace of the same encodings.
    """
    if formats is None:
        formats = _default_formats()
    spec = EncodeSpec(mask=mask, tbs=tbs, block_size=block_size)
    reports: Dict[str, TrafficReport] = {}
    for fmt in formats:
        encoded = fmt.encode(values, spec)
        reports[fmt.name] = traffic_report(
            encoded, burst_bytes=burst_bytes, m=block_size, orientation=orientation
        )
    return reports
