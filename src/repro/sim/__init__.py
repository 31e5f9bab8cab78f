"""Cycle-level simulators of TB-STC and the baseline architectures."""

from .baselines import ARCH_FAMILY, arch_by_name, simulate_layer_sweep
from .breakdown import codec_overhead_fraction, cycle_breakdown
from .engine import PIPELINE_FILL_CYCLES, block_segments, simulate
from .functional import functional_block_product, functional_spmm, verify_workload
from .metrics import SIM_RESULT_SCHEMA, SimResult, aggregate, normalized_edp, speedup
from .options import SimOptions

__all__ = [
    "ARCH_FAMILY",
    "PIPELINE_FILL_CYCLES",
    "SIM_RESULT_SCHEMA",
    "SimOptions",
    "SimResult",
    "aggregate",
    "arch_by_name",
    "block_segments",
    "codec_overhead_fraction",
    "cycle_breakdown",
    "functional_block_product",
    "functional_spmm",
    "normalized_edp",
    "simulate",
    "simulate_layer_sweep",
    "speedup",
    "verify_workload",
]
