"""Energy and power model (the Sparseloop / Design Compiler stand-in).

Per-operation energies are expressed at a 7 nm node (the paper scales all
components to 7 nm via DeepScaleTool).  The dynamic constants are
calibrated so that the TB-STC instance running at full utilization and
1 GHz dissipates the Table III budget: 197.71 mW in the DVPE arrays,
2.19 mW in the codec and 0.69 mW in the MBD unit, 200.59 mW total.

All energies are in picojoules; :class:`EnergyReport` aggregates a
workload's component energies over its cycles.
"""

from __future__ import annotations
from dataclasses import dataclass, field
from typing import Dict

from .config import ArchConfig

__all__ = ["EnergyParams", "EnergyReport", "EnergyModel"]


@dataclass(frozen=True)
class EnergyParams:
    """Per-operation energies (pJ) and static power (mW) at 7 nm, 1 GHz.

    The MAC energy is calibrated against Table III: 1024 FP16 MACs/cycle
    at 1 GHz dissipating 197.71 mW gives 0.193 pJ/MAC for the DVPE
    datapath (multiplier + reduction node + registers + alternate unit).
    """

    mac_pj: float = 0.193
    #: Codec: 2.19 mW at 1 GHz moving ~16 elements/cycle -> 0.137 pJ/elem.
    codec_elem_pj: float = 0.137
    #: MBD: 0.69 mW at 1 GHz selecting ~16 B-elements/cycle -> 0.043 pJ.
    mbd_elem_pj: float = 0.043
    #: SECDED/parity encode+check per protected metadata word (a ~20-gate
    #: XOR tree at 7 nm; charged once per word moved through the buffer).
    ecc_word_pj: float = 0.02
    #: On-chip SRAM access energy per byte (7 nm, ~192 KB buffer).
    sram_byte_pj: float = 0.4
    #: Off-chip DRAM energy per byte (HBM/LPDDR5-class, I/O + core).
    dram_byte_pj: float = 4.0
    #: Register-file traffic per MAC operand pair, folded into mac_pj.
    #: Leakage/static power of the whole TB-STC tile (mW).
    static_mw: float = 8.0


@dataclass
class EnergyReport:
    """Aggregated energy of one simulated workload (all values pJ)."""

    components: Dict[str, float] = field(default_factory=dict)
    cycles: int = 0
    frequency_ghz: float = 1.0

    def add(self, component: str, picojoules: float) -> None:
        if picojoules < 0:
            raise ValueError(f"negative energy for {component}")
        self.components[component] = self.components.get(component, 0.0) + picojoules

    @property
    def total_pj(self) -> float:
        return sum(self.components.values())

    @property
    def total_j(self) -> float:
        return self.total_pj * 1e-12

    @property
    def time_s(self) -> float:
        return self.cycles / (self.frequency_ghz * 1e9)

    def to_dict(self) -> Dict:
        """Plain JSON-ready payload (used by ``SimResult.to_dict``)."""
        return {
            "components": dict(self.components),
            "cycles": int(self.cycles),
            "frequency_ghz": float(self.frequency_ghz),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "EnergyReport":
        return cls(
            components={str(k): float(v) for k, v in data["components"].items()},
            cycles=int(data["cycles"]),
            frequency_ghz=float(data["frequency_ghz"]),
        )


class EnergyModel:
    """Integrates per-event energies for one architecture."""

    def __init__(self, config: ArchConfig, params: EnergyParams = EnergyParams()):
        self.config = config
        self.params = params

    def report(
        self,
        cycles: int,
        macs: int,
        dram_bytes: float,
        sram_bytes: float,
        codec_elements: int = 0,
        mbd_elements: int = 0,
        ecc_words: int = 0,
    ) -> EnergyReport:
        """Energy of one workload execution.

        ``macs`` counts real multiply-accumulates (the datapath scale of
        the config captures gather/union/FAN overhead per MAC);
        ``codec_elements`` / ``mbd_elements`` count elements passing
        through those units; ``ecc_words`` counts protected metadata
        words encoded+checked when the architecture runs with ECC.
        """
        if min(cycles, macs) < 0 or min(dram_bytes, sram_bytes) < 0 or ecc_words < 0:
            raise ValueError("negative activity counts")
        p = self.params
        report = EnergyReport(cycles=cycles, frequency_ghz=self.config.frequency_ghz)
        report.add("compute", macs * p.mac_pj * self.config.datapath_energy_scale)
        report.add("dram", dram_bytes * p.dram_byte_pj)
        report.add("sram", sram_bytes * p.sram_byte_pj * self.config.memory_energy_scale)
        if self.config.has_codec and codec_elements:
            report.add("codec", codec_elements * p.codec_elem_pj)
        if self.config.has_mbd and mbd_elements:
            report.add("mbd", mbd_elements * p.mbd_elem_pj)
        if ecc_words:
            report.add("ecc", ecc_words * p.ecc_word_pj)
        report.add("static", p.static_mw * 1e-3 * report.time_s * 1e12)
        return report

    def peak_dynamic_power_mw(self) -> Dict[str, float]:
        """Component power at full utilization -- reproduces Table III.

        DVPE: every MAC lane busy; codec and MBD at their rated element
        throughput (16 elements/cycle each).
        """
        cfg = self.config
        p = self.params
        ghz = cfg.frequency_ghz
        dvpe = cfg.peak_macs_per_cycle * p.mac_pj * cfg.datapath_energy_scale * ghz
        codec = 16 * p.codec_elem_pj * ghz if cfg.has_codec else 0.0
        mbd = 16 * p.mbd_elem_pj * ghz if cfg.has_mbd else 0.0
        return {
            "DVPE Array": dvpe,
            "Codec Unit": codec,
            "MBD Unit": mbd,
            "Total": dvpe + codec + mbd,
        }
