"""End-to-end model workloads for the Fig. 13 evaluation.

The end-to-end comparison is run *iso-accuracy*: every architecture gets
the sparsity degree at which its own pattern family matches the target
accuracy (Sec. VII-C2), so the flexible patterns run sparser models.
The per-family degrees below are taken from our accuracy experiments
(Tables I/II reproduction): at ResNet-50-level accuracy US and TBS
sustain 75%, the row-wise patterns ~62.5%, and TS is pinned at its 4:8
(50%); transformer models follow the Table II 50%-US operating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.patterns import PatternFamily
from ..perf import timed
from .generator import GEMMWorkload, build_workload
from .layers import MODEL_LAYERS

__all__ = ["ModelWorkload", "ISO_ACCURACY_SPARSITY", "build_model_workload"]

#: Iso-accuracy sparsity degrees per (model, pattern family).
ISO_ACCURACY_SPARSITY: Dict[str, Dict[PatternFamily, float]] = {
    "resnet50": {
        PatternFamily.US: 0.75,
        PatternFamily.TBS: 0.75,
        PatternFamily.RS_H: 0.625,
        PatternFamily.RS_V: 0.625,
        PatternFamily.TS: 0.5,
    },
    "bert": {
        PatternFamily.US: 0.625,
        PatternFamily.TBS: 0.625,
        PatternFamily.RS_H: 0.5,
        PatternFamily.RS_V: 0.5,
        PatternFamily.TS: 0.5,
    },
    "opt-6.7b": {
        PatternFamily.US: 0.5,
        PatternFamily.TBS: 0.5,
        PatternFamily.RS_H: 0.375,
        PatternFamily.RS_V: 0.375,
        PatternFamily.TS: 0.375,
    },
}


@dataclass
class ModelWorkload:
    """All (scaled) layers of one model pruned with one pattern family."""

    model: str
    family: PatternFamily
    sparsity: float
    layers: List[GEMMWorkload]
    repeats: List[int]

    def __post_init__(self) -> None:
        if len(self.layers) != len(self.repeats):
            raise ValueError("layers and repeats must align")

    @property
    def total_macs(self) -> int:
        return sum(r * layer.macs for r, layer in zip(self.repeats, self.layers))


@timed("workloads.build")
def build_model_workload(
    model: str,
    family: PatternFamily,
    sparsity: float = None,
    m: int = 8,
    seed: int = 0,
    scale: int = 4,
) -> ModelWorkload:
    """Build every layer of ``model`` pruned with ``family``.

    ``sparsity=None`` selects the iso-accuracy degree for the family
    (the Fig. 13 protocol); pass an explicit degree for iso-sparsity
    comparisons (Fig. 12 style).
    """
    if model not in MODEL_LAYERS:
        raise ValueError(f"unknown model {model!r}; have {sorted(MODEL_LAYERS)}")
    if sparsity is None:
        try:
            sparsity = ISO_ACCURACY_SPARSITY[model][family]
        except KeyError:
            raise ValueError(f"no iso-accuracy degree recorded for {model}/{family.name}") from None

    layer_fn, repeats = MODEL_LAYERS[model]
    layers = [
        build_workload(spec, family, sparsity, m=m, seed=seed + i, scale=scale)
        for i, spec in enumerate(layer_fn())
    ]
    return ModelWorkload(model, family, sparsity, layers, list(repeats))
