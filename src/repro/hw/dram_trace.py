"""Banked, open-row DRAM trace simulation (the detailed Ramulator mode).

:class:`~repro.hw.dram.DRAMModel` charges bandwidth and per-burst
overheads analytically; this module replays an actual *address trace*
(the format layers' consumption-order segments) against a banked DRAM
with an open-row policy:

* the address space interleaves across ``num_banks`` banks at row
  granularity;
* an access that hits the bank's open row pays only CAS + data burst;
* a miss pays precharge + activate + CAS, and bank-level parallelism
  lets misses on different banks overlap up to the command bus rate.

The cycle-level engine keeps the analytical model (it is faithful
enough for format *ratios* and much faster); the trace model exists to
validate those ratios -- DDC's long sequential runs must show far higher
row-hit rates than CSR's scattered fragments -- and for detailed
studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..formats.base import Segment

__all__ = ["DRAMTraceResult", "BankedDRAM"]


@dataclass(frozen=True)
class DRAMTraceResult:
    """Outcome of replaying one access trace."""

    cycles: int
    accesses: int
    row_hits: int
    row_misses: int
    energy_pj: float

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 1.0


class BankedDRAM:
    """Open-row, bank-interleaved DRAM replaying byte-address traces.

    Timing parameters are in memory-controller cycles; the defaults
    approximate LPDDR-class parts normalised to the accelerator's
    1 GHz domain.
    """

    def __init__(
        self,
        num_banks: int = 8,
        row_bytes: int = 1024,
        burst_bytes: int = 32,
        t_cas: int = 14,
        t_ras: int = 28,  # activate-to-precharge
        t_rp: int = 14,  # precharge
        burst_cycles: int = 4,
        activate_pj: float = 80.0,
        byte_pj: float = 4.0,
    ):
        if num_banks < 1 or row_bytes < burst_bytes or burst_bytes < 1:
            raise ValueError("invalid DRAM geometry")
        self.num_banks = num_banks
        self.row_bytes = row_bytes
        self.burst_bytes = burst_bytes
        self.t_cas = t_cas
        self.t_ras = t_ras
        self.t_rp = t_rp
        self.burst_cycles = burst_cycles
        self.activate_pj = activate_pj
        self.byte_pj = byte_pj

    def _locate(self, addr: int):
        """(bank, row) of a byte address under row-interleaved mapping."""
        row_global = addr // self.row_bytes
        return row_global % self.num_banks, row_global // self.num_banks

    def replay(self, segments: Iterable[Segment]) -> DRAMTraceResult:
        """Replay a consumption-order trace, burst by burst.

        Each segment expands into its covering bursts; every burst is
        one access.  The data bus serialises bursts; row misses add
        latency on their bank, overlapping with other banks' transfers
        (modelled by charging only the *exposed* portion, i.e. the miss
        penalty beyond the data-bus time since that bank's last use).
        """
        open_row: Dict[int, Optional[int]] = {b: None for b in range(self.num_banks)}
        bank_ready: Dict[int, int] = {b: 0 for b in range(self.num_banks)}
        bus_time = 0
        hits = 0
        misses = 0
        accesses = 0
        energy = 0.0

        for seg in segments:
            if seg.nbytes <= 0:
                continue
            first = (seg.addr // self.burst_bytes) * self.burst_bytes
            last = seg.addr + seg.nbytes
            addr = first
            while addr < last:
                bank, row = self._locate(addr)
                accesses += 1
                if open_row[bank] == row:
                    hits += 1
                    ready = max(bank_ready[bank], bus_time) + self.t_cas
                else:
                    misses += 1
                    penalty = self.t_rp + self.t_ras if open_row[bank] is not None else self.t_ras
                    ready = max(bank_ready[bank], bus_time) + penalty + self.t_cas
                    open_row[bank] = row
                    energy += self.activate_pj
                # The data burst occupies the shared bus after the bank
                # is ready; consecutive hits pipeline at the burst rate.
                bus_time = max(bus_time + self.burst_cycles, ready - self.t_cas + self.burst_cycles)
                bank_ready[bank] = bus_time
                energy += self.burst_bytes * self.byte_pj
                addr += self.burst_bytes

        return DRAMTraceResult(
            cycles=bus_time,
            accesses=accesses,
            row_hits=hits,
            row_misses=misses,
            energy_pj=energy,
        )

    def replay_encoded(self, encoded) -> DRAMTraceResult:
        """Replay an :class:`~repro.formats.base.EncodedMatrix` trace.

        Replays ``encoded.trace()``: the walk of the orientation the
        matrix was encoded for, the same trace ``traffic_report`` analyses.
        """
        return self.replay(encoded.trace())
