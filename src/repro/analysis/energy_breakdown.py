"""Component energy breakdowns (the Sparseloop-style stacked view).

Decomposes a simulation's energy into its components (compute / DRAM /
SRAM / codec / MBD / static) and compares the stacks across
architectures -- the view that explains *why* RM-STC's EDP trails
TB-STC despite similar cycle counts (Fig. 6(d) / Fig. 12 discussion):
the unstructured datapath's compute energy balloons while everything
else stays comparable.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..sim.baselines import ARCH_FAMILY, arch_by_name
from ..sim.engine import simulate
from ..sim.metrics import SimResult
from ..workloads.generator import build_workload
from ..workloads.layers import LayerSpec

__all__ = ["energy_fractions", "compare_energy_breakdown"]


def energy_fractions(result: SimResult) -> Dict[str, float]:
    """Per-component share of one run's total energy (sums to 1)."""
    total = result.energy.total_pj
    if total <= 0:
        return {}
    return {name: pj / total for name, pj in sorted(result.energy.components.items())}


def compare_energy_breakdown(
    layer: LayerSpec,
    sparsity: float = 0.75,
    arch_names: Sequence[str] = ("TC", "STC", "VEGETA", "HighLight", "RM-STC", "TB-STC"),
    scale: int = 2,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Energy stacks of one layer across architectures.

    Returns ``{arch: {component: fraction, "total_uJ": energy}}``; each
    architecture prunes with its own pattern family (the Fig. 12
    protocol).
    """
    out: Dict[str, Dict[str, float]] = {}
    for name in arch_names:
        config = arch_by_name(name)
        workload = build_workload(layer, ARCH_FAMILY[name], sparsity, seed=seed, scale=scale)
        result = simulate(config, workload)
        row = energy_fractions(result)
        row["total_uJ"] = result.energy.total_j * 1e6
        out[name] = row
    return out
