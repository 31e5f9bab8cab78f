"""Scenario registry: the workload families behind ``run_scenarios``.

One scenario = one workload family (stencil / moe / inference24) pruned
with one pattern regime:

* ``"TBS"``   -- transposable block-wise N:M at the family's target
  sparsity, executed on TB-STC;
* ``"2:4"``   -- NVIDIA's fixed TS ratio (sparsity saturates at 4:8),
  executed on STC;
* ``"dense"`` -- an all-ones mask, executed on the dense TC baseline.

Each bundle carries the simulator view (``layers`` + ``repeats`` for
aggregated cycles/EDP) and one representative matrix for the storage
format / traffic axis, so the analysis driver can sweep pattern x
format x orientation without knowing how each family lowers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..core.patterns import DEFAULT_M, PatternFamily
from ..perf import timed
from .generator import GEMMWorkload
from .inference24 import INFERENCE24_SPARSITY, build_inference24_workloads
from .moe import MoESpec, build_moe_workloads
from .stencils import STENCILS, build_stencil_workload

__all__ = [
    "ScenarioBundle",
    "SCENARIO_FAMILIES",
    "SCENARIO_PATTERNS",
    "SCENARIO_ARCH",
    "build_scenario",
]

#: The registered workload families, in canonical sweep order.
SCENARIO_FAMILIES: Tuple[str, ...] = ("stencil", "moe", "inference24")

#: The pattern regimes every family is swept through.
SCENARIO_PATTERNS: Tuple[str, ...] = ("TBS", "2:4", "dense")

#: Which architecture executes each pattern regime.
SCENARIO_ARCH: Dict[str, str] = {"TBS": "TB-STC", "2:4": "STC", "dense": "TC"}

_PATTERN_FAMILY: Dict[str, PatternFamily] = {
    "TBS": PatternFamily.TBS,
    "2:4": PatternFamily.TS,
    "dense": PatternFamily.US,
}

#: Per-family target sparsity under the TBS/2:4 regimes (the dense
#: regime always runs at 0): stencils prune past their structural zeros,
#: MoE prunes 50% within each expert on top of the block-diagonal
#: structure, and the 2:4-inference family uses the recipe's fixed 50%.
_FAMILY_SPARSITY: Dict[str, float] = {
    "stencil": 0.75,
    "moe": 0.5,
    "inference24": INFERENCE24_SPARSITY,
}

#: Layer repeat counts for the inference24 projections (BERT-base has 12
#: encoder layers, OPT-6.7B has 32 decoder layers).
_INFERENCE24_REPEATS = (12, 12, 32, 32)


@dataclass
class ScenarioBundle:
    """One (family, pattern) scenario, ready for simulation + encoding."""

    family: str
    pattern: str
    target_sparsity: float
    layers: Tuple[GEMMWorkload, ...]
    repeats: Tuple[int, ...]
    #: Representative matrix for the storage-format / traffic axis.
    format_workload: GEMMWorkload


@timed("workloads.build")
def build_scenario(
    family: str,
    pattern: str,
    m: int = DEFAULT_M,
    seed: int = 0,
    scale: int = 8,
) -> ScenarioBundle:
    """Build one scenario bundle; pure function of its arguments."""
    if family not in SCENARIO_FAMILIES:
        raise ValueError(
            f"unknown workload family {family!r}; known: {', '.join(SCENARIO_FAMILIES)}"
        )
    if pattern not in SCENARIO_PATTERNS:
        raise ValueError(
            f"unknown scenario pattern {pattern!r}; known: {', '.join(SCENARIO_PATTERNS)}"
        )
    pat = _PATTERN_FAMILY[pattern]
    sparsity = 0.0 if pattern == "dense" else _FAMILY_SPARSITY[family]

    if family == "stencil":
        layers = tuple(
            build_stencil_workload(spec, pat, sparsity, m=m, seed=seed, scale=scale)
            for spec in STENCILS.values()
        )
        repeats = (1,) * len(layers)
        # The 3-D star is the shape with the most structure to exploit
        # (20 of 27 taps are structural zeros) -- the format stressor.
        fmt = build_stencil_workload(STENCILS["star7"], pat, sparsity, m=m, seed=seed, scale=scale)
    elif family == "moe":
        per_expert, combined = build_moe_workloads(
            MoESpec(), pat, sparsity, m=m, seed=seed, scale=scale
        )
        layers, repeats, fmt = tuple(per_expert), (1,) * len(per_expert), combined
    else:  # inference24
        layers = tuple(
            build_inference24_workloads(pat, sparsity, m=m, seed=seed, scale=scale)
        )
        repeats = _INFERENCE24_REPEATS
        fmt = layers[2]  # opt.qkv: the widest projection
    return ScenarioBundle(
        family=family,
        pattern=pattern,
        target_sparsity=sparsity,
        layers=layers,
        repeats=repeats,
        format_workload=fmt,
    )
