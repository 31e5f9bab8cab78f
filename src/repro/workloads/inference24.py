"""NVIDIA-style 2:4 one-shot-pruned inference projections.

The third scenario family: transformer projection GEMMs at BERT-base
and OPT-6.7B shapes, one-shot magnitude-pruned the way the 2:4
inference recipe does (prune a trained checkpoint once, deploy without
retraining).  The native pattern here is the fixed 2:4/4:8 TS ratio --
sparsity saturates at 50% -- which makes this the family where the
*baseline* hardware (NVIDIA's STC) is playing its home game and TBS
must win on flexibility alone.
"""

from __future__ import annotations

from typing import List

from ..core.patterns import DEFAULT_M, PatternFamily
from .generator import GEMMWorkload, pattern_mask, synthetic_weights
from .layers import LayerSpec, bert_layers, opt_6_7b_layers

__all__ = ["INFERENCE24_SPARSITY", "inference24_layers", "build_inference24_workloads"]

#: The 2:4 recipe's fixed pruning degree.
INFERENCE24_SPARSITY = 0.5


def inference24_layers(seq_len: int = 128) -> List[LayerSpec]:
    """The evaluated projection shapes: BERT-base QKV/FFN + OPT-6.7B QKV/FFN."""
    bert = {layer.name: layer for layer in bert_layers(seq_len)}
    opt = {layer.name: layer for layer in opt_6_7b_layers(seq_len)}
    return [bert["bert.qkv"], bert["bert.ffn_down"], opt["opt.qkv"], opt["opt.ffn_down"]]


def build_inference24_workloads(
    family: PatternFamily,
    sparsity: float = INFERENCE24_SPARSITY,
    m: int = DEFAULT_M,
    seed: int = 0,
    scale: int = 1,
    seq_len: int = 128,
) -> List[GEMMWorkload]:
    """One-shot magnitude-prune every projection with ``family``.

    Weights carry trained-layer statistics (:func:`synthetic_weights`);
    the mask is a single projection of their magnitudes onto ``family``
    at ``sparsity`` -- no retraining loop, matching the deployment-time
    2:4 recipe.  ``sparsity=0`` keeps the dense baseline.
    """
    workloads: List[GEMMWorkload] = []
    for i, layer in enumerate(inference24_layers(seq_len)):
        spec_layer = layer.scaled(scale, m=m) if scale > 1 else layer
        weights = synthetic_weights(spec_layer.rows, spec_layer.cols, seed=seed + i)
        mask, tbs = pattern_mask(weights, family, sparsity, m=m)
        workloads.append(
            GEMMWorkload(
                name=f"inf24.{spec_layer.name}[{family.name}@{sparsity:.0%}]",
                values=weights,
                mask=mask,
                b_cols=spec_layer.b_cols,
                m=m,
                family=family,
                tbs=tbs,
            )
        )
    return workloads
