"""Workloads: layer GEMM shapes, synthetic weights and model bundles."""

from .from_model import workload_from_layer, workloads_from_model
from .generator import GEMMWorkload, build_workload, pattern_mask, synthetic_weights
from .inference24 import INFERENCE24_SPARSITY, build_inference24_workloads, inference24_layers
from .layers import (
    MODEL_LAYERS,
    LayerSpec,
    bert_layers,
    opt_6_7b_layers,
    resnet50_layers,
)
from .models import ISO_ACCURACY_SPARSITY, ModelWorkload, build_model_workload
from .moe import MoESpec, build_moe_workloads, moe_combined_sparsity, route_tokens
from .scenarios import (
    SCENARIO_ARCH,
    SCENARIO_FAMILIES,
    SCENARIO_PATTERNS,
    ScenarioBundle,
    build_scenario,
)
from .stencils import STENCILS, StencilSpec, build_stencil_workload, stencil_tap_mask

__all__ = [
    "GEMMWorkload",
    "INFERENCE24_SPARSITY",
    "ISO_ACCURACY_SPARSITY",
    "LayerSpec",
    "MODEL_LAYERS",
    "ModelWorkload",
    "MoESpec",
    "SCENARIO_ARCH",
    "SCENARIO_FAMILIES",
    "SCENARIO_PATTERNS",
    "STENCILS",
    "ScenarioBundle",
    "StencilSpec",
    "bert_layers",
    "build_inference24_workloads",
    "build_model_workload",
    "build_moe_workloads",
    "build_scenario",
    "build_stencil_workload",
    "build_workload",
    "inference24_layers",
    "moe_combined_sparsity",
    "opt_6_7b_layers",
    "pattern_mask",
    "resnet50_layers",
    "route_tokens",
    "stencil_tap_mask",
    "synthetic_weights",
    "workload_from_layer",
    "workloads_from_model",
]
