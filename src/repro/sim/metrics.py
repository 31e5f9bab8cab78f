"""Simulation results and derived metrics (speedup, EDP, utilization)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..hw.energy import EnergyReport

__all__ = ["SIM_RESULT_SCHEMA", "SimResult", "speedup", "normalized_edp", "aggregate"]

#: Version stamped into ``SimResult.to_dict`` payloads.  Bump whenever a
#: field is added/renamed/retyped so cached or cross-process payloads
#: from older code fail loudly in ``from_dict`` instead of silently
#: deserializing into the wrong shape.
#:
#: History: 2 added the ``metrics`` key (observability payload).
SIM_RESULT_SCHEMA = 2


@dataclass
class SimResult:
    """Outcome of simulating one workload on one architecture."""

    arch: str
    workload: str
    cycles: int
    compute_cycles: int
    memory_cycles: int
    codec_visible_cycles: int
    macs: int
    dram_bytes: float
    energy: EnergyReport
    compute_utilization: float
    bandwidth_utilization: float
    frequency_ghz: float = 1.0
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: Outcome of the optional per-run fault injection (see
    #: ``sim.engine.simulate``'s ``fault`` parameter): one of
    #: ``repro.faults.CLASSES``, or None when no fault was injected.
    fault_classification: Optional[str] = None
    #: Per-stage wall-time split of this ``simulate()`` call, present only
    #: when instrumentation was on (``repro.obs.enable()``, the same
    #: switch as ``metrics``): ``{stage: {"calls": n, "seconds": s}}``,
    #: the timer records of the call's metrics capture.  Not scaled or
    #: aggregated -- it describes the simulator, not the modeled hardware.
    perf_breakdown: Optional[Dict[str, Dict[str, float]]] = None
    #: Deterministic observability payload of this ``simulate()`` call
    #: (``repro.obs.metrics`` ``to_dict(deterministic_only=True)``
    #: shape, own ``schema_version``), present only when observability
    #: was enabled (``repro.obs.enable()``).  Like ``perf_breakdown`` it
    #: describes the simulator run, so ``scaled``/``aggregate`` drop it.
    metrics: Optional[Dict] = None

    @property
    def time_s(self) -> float:
        return self.cycles / (self.frequency_ghz * 1e9)

    @property
    def energy_j(self) -> float:
        return self.energy.total_j

    @property
    def edp(self) -> float:
        """Energy-Delay Product (J*s) -- the paper's headline metric."""
        return self.energy_j * self.time_s

    def to_dict(self) -> Dict:
        """Versioned JSON-ready payload (inverse of :meth:`from_dict`).

        This is the one sanctioned way a ``SimResult`` crosses a process
        boundary or lands in CLI JSON output: sweep workers return
        ``result.to_dict()`` and the aggregator rebuilds with
        ``SimResult.from_dict`` -- no ad-hoc dict plumbing, and a schema
        bump turns silent drift into a loud error.
        """
        return {
            "schema_version": SIM_RESULT_SCHEMA,
            "arch": self.arch,
            "workload": self.workload,
            "cycles": int(self.cycles),
            "compute_cycles": int(self.compute_cycles),
            "memory_cycles": int(self.memory_cycles),
            "codec_visible_cycles": int(self.codec_visible_cycles),
            "macs": int(self.macs),
            "dram_bytes": float(self.dram_bytes),
            "energy": self.energy.to_dict(),
            "compute_utilization": float(self.compute_utilization),
            "bandwidth_utilization": float(self.bandwidth_utilization),
            "frequency_ghz": float(self.frequency_ghz),
            "breakdown": dict(self.breakdown),
            "fault_classification": self.fault_classification,
            "perf_breakdown": self.perf_breakdown,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SimResult":
        """Rebuild a result from :meth:`to_dict` output (schema-checked)."""
        version = data.get("schema_version")
        if version != SIM_RESULT_SCHEMA:
            raise ValueError(
                f"SimResult payload schema {version!r} != supported {SIM_RESULT_SCHEMA}"
            )
        return cls(
            arch=data["arch"],
            workload=data["workload"],
            cycles=int(data["cycles"]),
            compute_cycles=int(data["compute_cycles"]),
            memory_cycles=int(data["memory_cycles"]),
            codec_visible_cycles=int(data["codec_visible_cycles"]),
            macs=int(data["macs"]),
            dram_bytes=float(data["dram_bytes"]),
            energy=EnergyReport.from_dict(data["energy"]),
            compute_utilization=float(data["compute_utilization"]),
            bandwidth_utilization=float(data["bandwidth_utilization"]),
            frequency_ghz=float(data["frequency_ghz"]),
            breakdown={str(k): float(v) for k, v in data["breakdown"].items()},
            fault_classification=data.get("fault_classification"),
            perf_breakdown=data.get("perf_breakdown"),
            metrics=data.get("metrics"),
        )

    def scaled(self, repeats: int) -> "SimResult":
        """The same layer executed ``repeats`` times back-to-back."""
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        clone = EnergyReport(cycles=self.energy.cycles * repeats, frequency_ghz=self.frequency_ghz)
        for comp, pj in self.energy.components.items():
            clone.add(comp, pj * repeats)
        return SimResult(
            arch=self.arch,
            workload=self.workload,
            cycles=self.cycles * repeats,
            compute_cycles=self.compute_cycles * repeats,
            memory_cycles=self.memory_cycles * repeats,
            codec_visible_cycles=self.codec_visible_cycles * repeats,
            macs=self.macs * repeats,
            dram_bytes=self.dram_bytes * repeats,
            energy=clone,
            compute_utilization=self.compute_utilization,
            bandwidth_utilization=self.bandwidth_utilization,
            frequency_ghz=self.frequency_ghz,
            breakdown={k: v * repeats for k, v in self.breakdown.items()},
        )


def speedup(result: SimResult, baseline: SimResult) -> float:
    """How much faster ``result`` is than ``baseline`` (>1 = faster)."""
    if result.time_s <= 0:
        return float("inf")
    return baseline.time_s / result.time_s


def normalized_edp(result: SimResult, baseline: SimResult) -> float:
    """EDP of ``result`` relative to ``baseline`` (<1 = better)."""
    if baseline.edp <= 0:
        return float("inf")
    return result.edp / baseline.edp


def aggregate(results: List[SimResult], repeats: Optional[List[int]] = None) -> SimResult:
    """Sum per-layer results into an end-to-end result (Fig. 13).

    Layers run back-to-back on one device, so cycles/energy add; the
    utilizations become work-weighted averages.
    """
    if not results:
        raise ValueError("nothing to aggregate")
    if repeats is None:
        repeats = [1] * len(results)
    if len(repeats) != len(results):
        raise ValueError("repeats must align with results")
    scaled = [r.scaled(n) for r, n in zip(results, repeats)]
    total_cycles = sum(r.cycles for r in scaled)
    energy = EnergyReport(cycles=total_cycles, frequency_ghz=scaled[0].frequency_ghz)
    for r in scaled:
        for comp, pj in r.energy.components.items():
            energy.add(comp, pj)
    total_macs = sum(r.macs for r in scaled)
    breakdown: Dict[str, float] = {}
    for r in scaled:
        for k, v in r.breakdown.items():
            breakdown[k] = breakdown.get(k, 0.0) + v
    weight = lambda attr: (
        sum(getattr(r, attr) * r.cycles for r in scaled) / total_cycles if total_cycles else 1.0
    )
    return SimResult(
        arch=scaled[0].arch,
        workload="+".join(dict.fromkeys(r.workload for r in scaled)),
        cycles=total_cycles,
        compute_cycles=sum(r.compute_cycles for r in scaled),
        memory_cycles=sum(r.memory_cycles for r in scaled),
        codec_visible_cycles=sum(r.codec_visible_cycles for r in scaled),
        macs=total_macs,
        dram_bytes=sum(r.dram_bytes for r in scaled),
        energy=energy,
        compute_utilization=weight("compute_utilization"),
        bandwidth_utilization=weight("bandwidth_utilization"),
        frequency_ghz=scaled[0].frequency_ghz,
        breakdown=breakdown,
    )
