"""Architecture configurations for TB-STC and every baseline (Sec. VII-A).

The paper's TB-STC instance: 8 DVPE arrays of 2x8 DVPEs, each DVPE with
8 FP16 multipliers, a codec unit, an MBD unit, 1 GHz, 64 GB/s off-chip
bandwidth.  All baselines are configured with the *same peak compute,
on-chip capacity and bandwidth* ("For a fair way, we model and evaluate
the overhead in the same way for all baselines") and differ only in the
sparsity support knobs: which pattern family they exploit, their storage
format, and their scheduling/mapping capabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..core.patterns import PatternFamily

__all__ = [
    "ArchConfig",
    "tb_stc",
    "tensor_core",
    "stc",
    "vegeta",
    "highlight",
    "rm_stc",
    "sgcn",
    "dvpe_fan",
    "all_baselines",
]


@dataclass(frozen=True)
class ArchConfig:
    """One accelerator configuration.

    The compute fabric (``num_pe_arrays x pes_per_array`` PEs with
    ``lanes_per_pe`` FP16 MACs each) is shared by all designs; the
    feature flags select the sparsity machinery.
    """

    name: str
    # --- shared fabric (paper Sec. VII-A1) ---
    num_pe_arrays: int = 8
    pes_per_array: int = 16  # 2 x 8 DVPEs per array
    lanes_per_pe: int = 8  # FP16 multipliers per DVPE
    frequency_ghz: float = 1.0
    dram_bandwidth_gbs: float = 64.0
    onchip_buffer_kb: int = 192
    burst_bytes: int = 32
    # --- sparsity support ---
    pattern: PatternFamily = PatternFamily.TBS
    storage_format: str = "ddc"  # any name in repro.formats.available_formats()
    inter_block_scheduling: bool = True
    intra_block_mapping: bool = True
    alternate_unit: bool = True
    has_codec: bool = True
    has_mbd: bool = True
    #: Relative per-MAC datapath energy (1.0 = the TB-STC DVPE).  The
    #: unstructured designs pay for gather/union networks here
    #: (Fig. 6(d)); SIGMA's FAN pays for element-level forwarding.
    datapath_energy_scale: float = 1.0
    #: Relative on-chip memory energy.  Unstructured designs burn extra
    #: SRAM energy expanding bitmaps / gathering scattered operands.
    memory_energy_scale: float = 1.0
    #: Output results per PE per cycle before the alternate unit buffers.
    output_port_width: int = 2
    #: Alternate-unit buffer depth (results).
    alternate_buffer_depth: int = 8
    #: Scheduler lookahead (blocks fetched per cycle is 2 per Fig. 11(b)).
    scheduler_window: int = 8
    #: Cycles each non-empty block row adds to the block's DVPE cost: the
    #: per-row pipelining of the CSR-style front-ends (SGCN, RM-STC,
    #: DVPE+FAN); zero for block-native machines.
    row_overhead_cycles: float = 0.0
    #: Metadata protection: 'none' | 'parity' | 'secded'.  Protected
    #: variants pay check-bit traffic and ECC-logic energy (see
    #: repro.faults.ecc) in exchange for fault-campaign coverage, making
    #: reliability another explorable architecture axis.
    metadata_ecc: str = "none"

    def __post_init__(self) -> None:
        if self.num_pe_arrays < 1 or self.pes_per_array < 1 or self.lanes_per_pe < 1:
            raise ValueError("fabric dimensions must be positive")
        if self.frequency_ghz <= 0 or self.dram_bandwidth_gbs <= 0:
            raise ValueError("frequency and bandwidth must be positive")
        if self.metadata_ecc not in ("none", "parity", "secded"):
            raise ValueError(f"metadata_ecc must be none/parity/secded, got {self.metadata_ecc!r}")
        if self.row_overhead_cycles < 0:
            raise ValueError(f"row_overhead_cycles must be >= 0, got {self.row_overhead_cycles}")

    @property
    def num_pes(self) -> int:
        return self.num_pe_arrays * self.pes_per_array

    @property
    def peak_macs_per_cycle(self) -> int:
        return self.num_pes * self.lanes_per_pe

    @property
    def dram_bytes_per_cycle(self) -> float:
        return self.dram_bandwidth_gbs / self.frequency_ghz


def tb_stc(**overrides) -> ArchConfig:
    """The proposed architecture (Fig. 5(b))."""
    return ArchConfig(name="TB-STC", **overrides)


def tensor_core(**overrides) -> ArchConfig:
    """Dense Tensor Core (TC): no sparsity support at all."""
    cfg = dict(
        pattern=PatternFamily.US,  # irrelevant: computes everything densely
        storage_format="dense",
        inter_block_scheduling=False,
        intra_block_mapping=False,
        alternate_unit=False,
        has_codec=False,
        has_mbd=False,
        datapath_energy_scale=0.95,  # no sparsity muxes in the datapath
    )
    cfg.update(overrides)
    return ArchConfig(name="TC", **cfg)


def stc(**overrides) -> ArchConfig:
    """NVIDIA Sparse Tensor Core: fixed 2:4 (evaluated as 4:8) tile-wise."""
    cfg = dict(
        pattern=PatternFamily.TS,
        storage_format="sdc",  # aligned 50% compression with 2-bit indices
        inter_block_scheduling=False,
        # STC's 2x rate comes from packing two compressed 4:8 rows into
        # one 8-lane beat -- trivial because every row has the same N.
        intra_block_mapping=True,
        alternate_unit=False,
        has_codec=False,
        has_mbd=True,  # the B-operand multiplexer (Fig. 3(b))
        datapath_energy_scale=0.98,
    )
    cfg.update(overrides)
    return ArchConfig(name="STC", **cfg)


def vegeta(**overrides) -> ArchConfig:
    """VEGETA: row-wise N:M with per-row N, row-aligned storage."""
    cfg = dict(
        pattern=PatternFamily.RS_V,
        storage_format="sdc",
        inter_block_scheduling=False,
        intra_block_mapping=True,  # row-wise reordering / packing
        alternate_unit=False,
        has_codec=False,
        has_mbd=True,
        datapath_energy_scale=1.0,
    )
    cfg.update(overrides)
    return ArchConfig(name="VEGETA", **cfg)


def highlight(**overrides) -> ArchConfig:
    """HighLight: hierarchical row-wise sparsity, better compression."""
    cfg = dict(
        pattern=PatternFamily.RS_H,
        storage_format="sdc",
        inter_block_scheduling=True,  # coarse-level tile skipping
        intra_block_mapping=True,
        alternate_unit=False,
        has_codec=False,
        has_mbd=True,
        datapath_energy_scale=1.02,
    )
    cfg.update(overrides)
    return ArchConfig(name="HighLight", **cfg)


def rm_stc(**overrides) -> ArchConfig:
    """RM-STC: unstructured sparsity on a row-merge tensor-core dataflow.

    Speedup tracks nnz closely, but the gather/union datapath costs
    ~2x per-MAC energy (Fig. 6(d)) and bitmap metadata traffic.
    """
    cfg = dict(
        pattern=PatternFamily.US,
        storage_format="bitmap",
        inter_block_scheduling=True,
        intra_block_mapping=True,
        alternate_unit=True,
        has_codec=False,
        has_mbd=True,
        datapath_energy_scale=2.0,
        memory_energy_scale=1.6,
        row_overhead_cycles=0.05,
    )
    cfg.update(overrides)
    return ArchConfig(name="RM-STC", **cfg)


def sgcn(**overrides) -> ArchConfig:
    """SGCN: compressed-sparse GNN accelerator tuned for >90% sparsity.

    Keeps a high bandwidth-to-compute ratio (256 GB/s in Fig. 15(d))
    and compressed-sparse features consumed by a row-product dataflow --
    modelled as a contiguously streamable compressed layout -- with
    per-row processing overhead that makes it inefficient at moderate
    sparsity.
    """
    cfg = dict(
        pattern=PatternFamily.US,
        storage_format="bitmap",
        dram_bandwidth_gbs=256.0,
        inter_block_scheduling=True,
        intra_block_mapping=True,
        alternate_unit=False,
        has_codec=False,
        has_mbd=False,
        datapath_energy_scale=1.25,
        memory_energy_scale=1.3,
        row_overhead_cycles=0.15,
    )
    cfg.update(overrides)
    return ArchConfig(name="SGCN", **cfg)


def dvpe_fan(**overrides) -> ArchConfig:
    """Ablation baseline: our DVPE fabric with SIGMA's element-level FAN.

    The forwarding adder network balances at element granularity and
    ignores TBS's two-level (inter/intra-block) balance, burning energy
    (Sec. VII-E2: 1.61x worse EDP than the DVPE).
    """
    cfg = dict(
        pattern=PatternFamily.TBS,
        storage_format="ddc",
        inter_block_scheduling=True,
        intra_block_mapping=True,
        alternate_unit=False,
        has_codec=True,
        has_mbd=True,
        datapath_energy_scale=2.2,
        memory_energy_scale=1.4,
        row_overhead_cycles=0.2,
    )
    cfg.update(overrides)
    return ArchConfig(name="DVPE+FAN", **cfg)


def all_baselines() -> Tuple[ArchConfig, ...]:
    """The evaluation's baseline set plus TB-STC itself."""
    return (tensor_core(), stc(), vegeta(), highlight(), rm_stc(), tb_stc())
