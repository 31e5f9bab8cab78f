"""The paper's architectures by name, and the Fig. 12 layer sweep.

Each baseline's quirks live in its :class:`~repro.hw.config.ArchConfig`
(SGCN's per-row overhead among them) or in the workload generator
(STC's 4:8 pattern pinning), so every architecture simulates through
:func:`repro.sim.engine.simulate` alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.patterns import PatternFamily
from ..hw.config import ArchConfig, dvpe_fan, highlight, rm_stc, sgcn, stc, tb_stc, tensor_core, vegeta
from ..workloads.generator import build_workload
from ..workloads.layers import LayerSpec
from .engine import simulate
from .metrics import SimResult

__all__ = [
    "ARCH_FAMILY",
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
        results[name] = simulate(config, workload)
    return results
