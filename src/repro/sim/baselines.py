"""Per-architecture simulation entry points.

Thin wrappers around :func:`repro.sim.engine.simulate` that bundle each
baseline's configuration quirks (SGCN's per-row overhead, STC's 4:8
pattern pinning handled by the workload generator) and a sweep helper
that runs one layer across the whole baseline set the way the Fig. 12
experiments do.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from ..core.patterns import PatternFamily
from ..hw.config import ArchConfig, dvpe_fan, highlight, rm_stc, sgcn, stc, tb_stc, tensor_core, vegeta
from ..workloads.generator import GEMMWorkload, build_workload
from ..workloads.layers import LayerSpec
from .engine import simulate
from .metrics import SimResult
from .options import SimOptions

__all__ = [
    "ARCH_FAMILY",
    "ARCH_ROW_OVERHEAD",
    "simulate_arch",
    "simulate_layer_sweep",
    "arch_by_name",
]

#: Which pattern family each architecture prunes with (its native mask).
ARCH_FAMILY: Dict[str, PatternFamily] = {
    "TC": PatternFamily.US,  # dense compute; mask irrelevant but keep US stats
    "STC": PatternFamily.TS,
    "VEGETA": PatternFamily.RS_V,
    "HighLight": PatternFamily.RS_H,
    "RM-STC": PatternFamily.US,
    "SGCN": PatternFamily.US,
    "TB-STC": PatternFamily.TBS,
    "DVPE+FAN": PatternFamily.TBS,
}

_FACTORIES = {
    "TC": tensor_core,
    "STC": stc,
    "VEGETA": vegeta,
    "HighLight": highlight,
    "RM-STC": rm_stc,
    "SGCN": sgcn,
    "TB-STC": tb_stc,
    "DVPE+FAN": dvpe_fan,
}


def arch_by_name(name: str, **overrides) -> ArchConfig:
    """Look up a baseline configuration by its paper name."""
    try:
        return _FACTORIES[name](**overrides)
    except KeyError:
        raise ValueError(f"unknown architecture {name!r}; have {sorted(_FACTORIES)}") from None


#: Per-non-empty-row cycle overhead each baseline's front-end pays (the
#: CSR-style row-pipelining model; zero for block-native machines).
ARCH_ROW_OVERHEAD: Dict[str, float] = {"SGCN": 0.15, "RM-STC": 0.05, "DVPE+FAN": 0.2}


def simulate_arch(
    config: ArchConfig,
    workload: GEMMWorkload,
    options: Optional[SimOptions] = None,
) -> SimResult:
    """Simulate with the architecture-specific knobs applied.

    ``options`` carries any extra simulation knobs; the baseline's own
    row-overhead model is layered on top unless the caller already set
    one explicitly.
    """
    opts = options if options is not None else SimOptions()
    if opts.row_overhead_cycles == 0.0:
        overhead = ARCH_ROW_OVERHEAD.get(config.name, 0.0)
        if overhead:
            opts = replace(opts, row_overhead_cycles=overhead)
    return simulate(config, workload, options=opts)


def simulate_layer_sweep(
    layer: LayerSpec,
    sparsity: float,
    arch_names: Optional[List[str]] = None,
    m: int = 8,
    seed: int = 0,
    scale: int = 4,
) -> Dict[str, SimResult]:
    """One layer at one sparsity degree across architectures (Fig. 12).

    Each architecture receives the mask its own pattern family produces
    at the requested sparsity (iso-sparsity protocol; STC saturates at
    4:8 per the paper's footnote).
    """
    if arch_names is None:
        arch_names = ["TC", "STC", "VEGETA", "HighLight", "RM-STC", "TB-STC"]
    results: Dict[str, SimResult] = {}
    for name in arch_names:
        config = arch_by_name(name)
        family = ARCH_FAMILY[name]
        workload = build_workload(layer, family, sparsity, m=m, seed=seed, scale=scale)
        results[name] = simulate_arch(config, workload)
    return results
