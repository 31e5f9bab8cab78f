"""The cycle-level simulator shared by TB-STC and every baseline.

One :func:`simulate` call executes one sparse GEMM on one
:class:`~repro.hw.config.ArchConfig`.  The pipeline (Fig. 5(b)):

1. **Block extraction** -- the sparse operand is partitioned into
   ``M x M`` blocks; each block's computation-format segments (per-output
   -row non-zero counts) are derived from the mask.  Architectures
   without a codec cannot consume independent-dimension blocks
   compactly: their aligned storage pads every row of such a block to
   the block's max row occupancy (compute and traffic both inflate).
2. **Intra-block mapping** -- each block's DVPE cycle cost comes from the
   mapping/alternate-unit model (:mod:`repro.hw.dvpe`).
3. **Inter-block scheduling** -- block costs are packed onto the PE array
   either lockstep (direct) or via the sparsity-aware scheduler.
4. **Codec** -- independent-dimension blocks pass through the format
   conversion; only the non-hidden part shows up in the critical path.
5. **Memory** -- the A operand moves in the architecture's storage
   format (traffic model + DRAM model); B is re-streamed once per A
   row-tile (buffer-capacity tiling); D is written once.
6. **Totals** -- compute and memory overlap (double buffering); energy
   integrates MACs, DRAM, SRAM, codec and MBD activity.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.blocks import split_into_blocks
from ..core.patterns import Direction, PatternFamily
from ..formats.base import DEFAULT_ORIENTATION, VALUE_BYTES, EncodeSpec
from ..formats.conversion import batch_conversion_cycles
from ..formats.memory_model import traffic_report
from ..formats.registry import available_formats, format_index, get_format
from ..hw.config import ArchConfig
from ..hw.dram import DRAMModel
from ..hw.dvpe import DVPE
from ..hw.energy import EnergyModel, EnergyParams
from ..hw.scheduler import SimStallError, schedule_direct, schedule_sparsity_aware
from ..obs import metrics as obs_metrics
from ..obs.state import enabled as _obs_enabled
from ..perf import stage, timed
from ..perf.memo import ArrayMemo, clear_memos
from ..runtime.checks import check_format_roundtrip, check_workload, get_check_level
from ..workloads.generator import GEMMWorkload
from .metrics import SimResult
from .options import SimOptions

__all__ = ["SimOptions", "simulate", "block_segments", "PIPELINE_FILL_CYCLES"]

#: Fixed pipeline fill/drain cost per layer launch.
PIPELINE_FILL_CYCLES = 64

def _storage_format(name: str, m: int):
    """The simulator's instance of storage format ``name``.

    Resolves through :mod:`repro.formats.registry`; SDC is special-cased
    to the hardware row-group variant (VEGETA/STC align within M-row
    groups rather than the whole matrix -- see the SDCFormat docstring).
    """
    if name == "sdc":
        return get_format("sdc", group_rows=m)
    return get_format(name)


@timed("sim.block_segments")
def block_segments(
    workload: GEMMWorkload, config: ArchConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-block computation-format segments as seen by ``config``.

    Returns ``(row_counts, directions)`` with shapes
    ``(n_blocks, m)`` and ``(n_blocks,)`` in block-row-major order.

    * Dense architectures compute every element: all segments are M.
    * Architectures *with* a codec consume independent-dimension blocks
      at their true per-row occupancy (the codec converts the layout).
    * Architectures *without* a codec see independent-dimension blocks
      through row-aligned storage: every row pads to the block's max
      occupancy.
    """
    m = workload.m
    if config.storage_format == "dense":
        n_br = -(-workload.shape[0] // m)
        n_bc = -(-workload.shape[1] // m)
        counts = np.full((n_br * n_bc, m), m, dtype=np.int64)
        dirs = np.full(n_br * n_bc, Direction.ROW.value, dtype=np.int64)
        return counts, dirs

    blocks = split_into_blocks(workload.mask.astype(np.int64), m)
    n_br, n_bc = blocks.shape[:2]
    row_counts = blocks.sum(axis=3).reshape(-1, m)

    if workload.tbs is not None:
        dirs = workload.tbs.block_direction.reshape(-1).copy()
    else:
        dirs = np.full(n_br * n_bc, Direction.ROW.value, dtype=np.int64)

    if workload.tbs is not None and not config.has_codec:
        col_blocks = dirs == Direction.COL.value
        if col_blocks.any():
            maxes = row_counts[col_blocks].max(axis=1, keepdims=True)
            row_counts = row_counts.copy()
            row_counts[col_blocks] = np.broadcast_to(maxes, (int(col_blocks.sum()), m))
    return row_counts, dirs


def _block_costs(
    row_counts: np.ndarray, config: ArchConfig, row_overhead: float = 0.0
):
    """DVPE cycle cost of every block (intra-block mapping model).

    The vectorized :meth:`~repro.hw.dvpe.DVPE.block_costs_batch` model,
    memoized across sweep cells (see :data:`_COST_MEMO`).
    """
    key = (
        row_counts.tobytes(),
        row_counts.shape,
        config.lanes_per_pe,
        config.output_port_width,
        config.alternate_unit,
        config.alternate_buffer_depth,
        config.intra_block_mapping,
        row_overhead,
    )
    cached = _COST_MEMO.get(key)
    if cached is not None:
        if _obs_enabled():
            obs_metrics.counter_add("sim.cost_memo.hits")
        return cached
    if _obs_enabled():
        obs_metrics.counter_add("sim.cost_memo.misses")
    pe = DVPE(
        lanes=config.lanes_per_pe,
        output_port_width=config.output_port_width,
        alternate_unit=config.alternate_unit,
        alternate_buffer_depth=config.alternate_buffer_depth,
        intra_block_mapping=config.intra_block_mapping,
    )
    costs = pe.block_costs_batch(row_counts).astype(np.float64)
    if row_overhead:
        # Fractional per-row overhead (pipelined row processing of the
        # CSR-style machines); it aggregates across blocks rather than
        # rounding up per block.
        costs = costs + row_overhead * (row_counts > 0).sum(axis=1)
    return _COST_MEMO.put(key, costs)


#: LRU memo for block-cost vectors, keyed on the mask-derived segment
#: counts plus every ArchConfig field the DVPE cost model reads.  Sweeps
#: (fig13/fig15/fig16) re-simulate the same layer across architectures
#: and sweep axes that share these fields, so repeated cells become a
#: dictionary lookup.  The byte budget counts keys too: a fig13 run at
#: the CLI's default ``--scale 4`` keeps 104 cost vectors worth ~76 MiB,
#: none evicted.
COST_MEMO_BYTES = 128 << 20
_COST_MEMO = ArrayMemo(COST_MEMO_BYTES)


def clear_cost_memo() -> None:
    """Empty every in-process memo: block costs and synthetic weights.

    This is the one public reset; it empties every
    :class:`~repro.perf.memo.ArrayMemo` in the process.  The sweep engine
    calls it at each cell boundary when observability is on: memo warmth
    is process-history-dependent, so without the reset a cell's hit/miss
    counters would depend on which worker ran it -- and ``--workers N``
    metrics would stop being byte-identical to serial.  Benchmarks call
    it before each timed repetition, because every fresh process pays
    the cold cost.  (With obs off the memos stay warm; they are pure
    caches and never change results.)
    """
    clear_memos()


#: Codec lane provisioning: 16 lanes x 2 elements/cycle matches the
#: 64 B/cycle (32 FP16 elements) off-chip load rate, so conversion keeps
#: up with the A-operand stream by construction.
CODEC_LANES = 16


def _codec_visible_and_elements(
    workload: GEMMWorkload,
    config: ArchConfig,
    dirs: np.ndarray,
    overlap_cycles: float,
) -> Tuple[int, int]:
    """Visible conversion cycles and converted element count.

    Each independent-dimension block converts *once*, as its payload
    streams in from memory; the codec's aggregate throughput matches the
    memory load rate, so conversion hides behind the longer of the
    A-tensor load and the compute window, and only a throughput
    shortfall (rare) plus the last block's merge beat is exposed
    (Fig. 14: ~3.57% average visible overhead).  Each block's cycles
    are :func:`~repro.formats.conversion.batch_conversion_cycles`'s
    closed form, which reads only its non-zero count.
    """
    if not config.has_codec or workload.tbs is None:
        return 0, 0
    m = workload.m
    # A block's conversion cycles depend only on how many non-zeros it
    # holds, so the codec reads the boolean occupancy, never the values.
    occupancy = workload.mask & (workload.values != 0.0)
    flat_blocks = split_into_blocks(occupancy, m).reshape(-1, m, m)
    # Only COL-direction blocks with payload convert (closed-form cycle
    # count per block); empty ones pass through contributing nothing.
    col_sel = dirs == Direction.COL.value
    col_blocks = flat_blocks[col_sel]
    block_nnz = np.count_nonzero(col_blocks, axis=(1, 2))
    elements = int(block_nnz.sum())
    conv_blocks = col_blocks[block_nnz > 0]
    converted = int(conv_blocks.shape[0])
    conversion_cycles = int(batch_conversion_cycles(conv_blocks).sum()) if converted else 0
    parallel_conversion = conversion_cycles / CODEC_LANES
    visible = int(math.ceil(max(0.0, parallel_conversion - overlap_cycles)))
    if converted:
        visible += 2  # the final merge beat of the last converted block
    return visible, elements


def _memory_cycles_and_bytes(
    workload: GEMMWorkload,
    config: ArchConfig,
    dram: DRAMModel,
    weight_bits: int = 16,
    ecc=None,
    orientation: str = DEFAULT_ORIENTATION,
) -> Tuple[int, float, Dict[str, float]]:
    """DRAM cycles and traffic for the A, B and D tensors.

    ``weight_bits`` < 16 models quantized weights (Fig. 15(b)): the A
    value payload shrinks proportionally while indices/metadata and the
    activation operands stay FP16.  ``ecc`` charges metadata check-bit
    traffic when the architecture protects its metadata.
    ``orientation`` selects which consumption pass of the *same*
    encoding is traced (forward or transposed -- the backward pass).
    """
    fmt = _storage_format(config.storage_format, workload.m)
    # Only the layout is read here; the payload is never gathered.
    encoded = fmt.encode(
        workload.values,
        EncodeSpec(
            mask=workload.mask,
            tbs=workload.tbs if config.storage_format in ("ddc", "bcsrcoo") else None,
            block_size=workload.m,
            orientation=orientation,
        ),
    )
    report = traffic_report(encoded, burst_bytes=config.burst_bytes, m=workload.m, ecc=ecc)
    a_res = dram.transfer_report(report)
    if weight_bits != 16:
        if not 2 <= weight_bits <= 16:
            raise ValueError(f"weight_bits must be in [2, 16], got {weight_bits}")
        # Values shrink; indices and the Info table stay as-is.
        quant_factor = (
            encoded.value_bytes * (weight_bits / 16.0) + encoded.index_bytes + encoded.meta_bytes
        ) / max(1, encoded.total_bytes)
        a_res = dram.transfer(
            a_res.fetched_bytes * quant_factor,
            num_bursts=report.num_bursts,
            contiguous=report.num_segments <= max(1, report.num_bursts // 8),
        )

    rows, cols = workload.shape
    k = workload.b_cols
    # B re-streams once per A row-tile; the tile height is what half the
    # on-chip buffer can hold of the encoded A operand.
    buffer_bytes = config.onchip_buffer_kb * 1024
    a_bytes_per_row = max(1.0, encoded.total_bytes / rows)
    tile_rows = max(workload.m, min(rows, int((buffer_bytes / 2) / a_bytes_per_row)))
    b_reloads = -(-rows // tile_rows)
    b_bytes = cols * k * VALUE_BYTES * b_reloads
    d_bytes = rows * k * VALUE_BYTES
    b_res = dram.transfer(b_bytes, num_bursts=max(1, int(b_bytes // config.burst_bytes)), contiguous=True)
    d_res = dram.transfer(d_bytes, num_bursts=max(1, int(d_bytes // config.burst_bytes)), contiguous=True)

    cycles = a_res.cycles + b_res.cycles + d_res.cycles
    total_bytes = a_res.fetched_bytes + b_bytes + d_bytes
    detail = {
        "a_bytes": float(a_res.fetched_bytes),
        "b_bytes": float(b_bytes),
        "d_bytes": float(d_bytes),
        "a_cycles": float(a_res.cycles),
        "bandwidth_utilization": report.bandwidth_utilization,
        "meta_bytes": float(encoded.meta_bytes),
        "ecc_bytes": float(report.ecc_bytes),
    }
    return cycles, total_bytes, detail


def simulate(
    config: ArchConfig,
    workload: GEMMWorkload,
    options: Optional[SimOptions] = None,
) -> SimResult:
    """Execute one sparse GEMM on one architecture.

    All knobs beyond (architecture, workload) travel in one frozen
    :class:`~repro.sim.options.SimOptions` value object:

    * ``options.row_overhead_cycles`` models per-non-empty-row processing
      overhead of CSR-style machines (used by the SGCN baseline);
    * ``options.weight_bits`` < 16 models quantized weights (Fig. 15(b));
    * ``options.ecc`` (an :class:`repro.faults.ecc.ECCConfig`) protects
      the storage format's metadata; when None, ``config.metadata_ecc``
      decides.  Protection charges check-bit traffic and ECC energy.
    * ``options.fault`` injects one seeded bit flip into the encoded A
      operand (``'values'`` | ``'indices'`` | ``'metadata'``) and
      classifies the outcome under the ambient :mod:`repro.runtime
      .checks` level; the class lands in
      ``SimResult.fault_classification``.  Timing is reported for the
      fault-free execution.  ``options.fault_seed`` seeds the flip.
    * ``options.cycle_budget`` raises
      :class:`~repro.hw.scheduler.SimStallError` if the modeled
      execution exceeds it -- a runaway guard for sweeps.

    When invariant checking is on (:mod:`repro.runtime.checks`), the
    workload mask is validated against its declared pattern family, and
    under ``strict`` the architecture's storage format is additionally
    round-tripped (encode -> decode must be exact) before simulation.

    When instrumentation is on (:func:`repro.obs.enable`, the one
    switch), the deterministic metrics recorded inside this call (memo
    hit rates, wave-cycle histograms, stall causes, ...) land in
    ``SimResult.metrics`` as a versioned dict, the per-stage wall-time
    split of the call lands in ``SimResult.perf_breakdown``, and every
    pipeline stage is traced as a span.  With it off (the default) both
    fields stay ``None``, the instrumentation reduces to one boolean
    check, and outputs are byte-identical to an uninstrumented build.
    """
    opts = options if options is not None else SimOptions()
    if not _obs_enabled():
        return _simulate(config, workload, opts)
    # Metrics capture swaps in a fresh registry, so the payload and the
    # stage split are exactly this call's; both merge back into the
    # ambient registry at exit (obs.metrics.capture docs).
    mcap = obs_metrics.capture()
    with mcap as metrics:
        obs_metrics.counter_add("sim.simulate_calls")
        with stage("sim.simulate"):
            result = _simulate(config, workload, opts)
    result.metrics = metrics
    result.perf_breakdown = mcap.timers
    return result


def _simulate(
    config: ArchConfig,
    workload: GEMMWorkload,
    options: SimOptions,
) -> SimResult:
    """Pipeline body of :func:`simulate` (timing-agnostic)."""
    energy_params = options.energy_params
    row_overhead_cycles = options.row_overhead_cycles
    weight_bits = options.weight_bits
    ecc = options.ecc
    fault = options.fault
    fault_seed = options.fault_seed
    cycle_budget = options.cycle_budget
    level = get_check_level()
    if level != "off":
        check_workload(workload, context=f"simulate:{workload.name}")
        if level == "strict" and config.storage_format in available_formats():
            check_format_roundtrip(
                get_format(config.storage_format),
                workload.values,
                mask=workload.mask,
                tbs=workload.tbs,
                block_size=workload.m,
                context=f"simulate:{workload.name}",
            )
    if ecc is None and config.metadata_ecc != "none":
        from ..faults.ecc import ECCConfig

        ecc = ECCConfig(mode=config.metadata_ecc)
    fault_classification = _classify_fault(config, workload, fault, fault_seed, ecc)
    params = energy_params or EnergyParams()
    row_counts, dirs = block_segments(workload, config)
    with stage("sim.block_costs"):
        costs = _block_costs(row_counts, config, row_overhead=row_overhead_cycles)

    # Small layers cannot fill the PE array with blocks alone; replicate
    # tasks across B-column tiles so spatial parallelism is preserved.
    n_blocks = len(costs)
    if _obs_enabled():
        obs_metrics.counter_add("sim.blocks", n_blocks)
    k = workload.b_cols
    replication = 1
    if n_blocks < 2 * config.num_pes and k > 1:
        replication = min(k, max(1, math.ceil(2 * config.num_pes / max(1, n_blocks))))
    task_costs = np.tile(costs, replication) if replication > 1 else costs
    column_passes = k / replication

    with stage("sim.schedule"):
        if config.inter_block_scheduling:
            sched = schedule_sparsity_aware(
                task_costs, config.num_pes, window=config.scheduler_window
            )
        else:
            sched = schedule_direct(task_costs, config.num_pes)
    compute_cycles = int(math.ceil(sched.makespan * column_passes))

    dram = DRAMModel(
        bandwidth_gbs=config.dram_bandwidth_gbs,
        frequency_ghz=config.frequency_ghz,
        burst_bytes=config.burst_bytes,
        byte_pj=params.dram_byte_pj,
    )
    with stage("sim.memory"):
        memory_cycles, dram_bytes, mem_detail = _memory_cycles_and_bytes(
            workload, config, dram, weight_bits=weight_bits, ecc=ecc,
            orientation=options.orientation,
        )

    with stage("sim.codec"):
        codec_visible, codec_elements = _codec_visible_and_elements(
            workload,
            config,
            dirs,
            overlap_cycles=max(mem_detail["a_cycles"], float(compute_cycles)),
        )

    total_cycles = max(compute_cycles, memory_cycles) + codec_visible + PIPELINE_FILL_CYCLES
    if cycle_budget is not None and total_cycles > cycle_budget:
        raise SimStallError(
            f"simulation of {workload.name!r} on {config.name!r} exceeded its cycle budget",
            cause="cycle_budget",
            state={
                "total_cycles": total_cycles,
                "cycle_budget": cycle_budget,
                "compute_cycles": compute_cycles,
                "memory_cycles": memory_cycles,
                "codec_visible": codec_visible,
                "n_blocks": n_blocks,
            },
        )

    # --- energy ---
    if config.storage_format == "dense":
        macs = workload.dense_macs
    else:
        macs = int(row_counts.sum()) * k  # padded slots are real work too
    mbd_elements = workload.nnz * k if config.has_mbd else 0
    sram_bytes = 2.0 * dram_bytes  # buffer fill + drain
    n_ecc_words = 0
    if ecc is not None and getattr(ecc, "enabled", False):
        from ..faults.ecc import ecc_words

        n_ecc_words = ecc_words(mem_detail["meta_bytes"], ecc)
    with stage("sim.energy"):
        energy = EnergyModel(config, params).report(
            cycles=total_cycles,
            macs=macs,
            dram_bytes=dram_bytes,
            sram_bytes=sram_bytes,
            codec_elements=codec_elements,
            mbd_elements=mbd_elements,
            ecc_words=n_ecc_words,
        )

    peak = config.peak_macs_per_cycle
    useful_macs = workload.macs if config.storage_format != "dense" else workload.dense_macs
    # Computation utilization is measured over the PE array's busy window
    # (the Sec. VI / Fig. 16(b) metric), not diluted by memory stalls.
    compute_util = useful_macs / (compute_cycles * peak) if compute_cycles else 1.0
    breakdown = {
        "compute": float(compute_cycles),
        "memory": float(memory_cycles),
        "codec_visible": float(codec_visible),
        "pipeline_fill": float(PIPELINE_FILL_CYCLES),
        **mem_detail,
    }
    return SimResult(
        arch=config.name,
        workload=workload.name,
        cycles=total_cycles,
        compute_cycles=compute_cycles,
        memory_cycles=memory_cycles,
        codec_visible_cycles=codec_visible,
        macs=macs,
        dram_bytes=dram_bytes,
        energy=energy,
        compute_utilization=min(1.0, compute_util),
        bandwidth_utilization=mem_detail["bandwidth_utilization"],
        frequency_ghz=config.frequency_ghz,
        breakdown=breakdown,
        fault_classification=fault_classification,
    )


def _classify_fault(
    config: ArchConfig,
    workload: GEMMWorkload,
    fault: Optional[str],
    fault_seed: int,
    ecc,
) -> Optional[str]:
    """Inject one seeded flip into the encoded A operand and classify it.

    The classification runs under the ambient check level: with checks
    ``off`` only decode crashes are caught, so coverage numbers directly
    reflect how much the invariant layer buys.  Returns None when no
    fault was requested or the format has no such target.
    """
    if fault is None:
        return None
    from ..core.patterns import PatternSpec
    from ..faults import classify_decode, inject_payload_bitflips, payload_targets

    fmt_name = config.storage_format
    if fmt_name not in available_formats() or fault not in payload_targets(fmt_name):
        return None
    fmt = _storage_format(fmt_name, workload.m)
    encoded = fmt.encode(
        workload.values,
        EncodeSpec(
            mask=workload.mask,
            tbs=workload.tbs if fmt_name in ("ddc", "bcsrcoo") else None,
            block_size=workload.m,
        ),
    )
    rng = np.random.default_rng([fault_seed, format_index(fmt_name)])
    record = inject_payload_bitflips(encoded, fault, rng)
    if not record.injected:
        return None
    pattern_spec = None
    if workload.family is not PatternFamily.US:
        pattern_spec = PatternSpec(
            workload.family, m=workload.m, sparsity=min(1.0, max(0.0, workload.sparsity))
        )
    return classify_decode(
        fmt, encoded, workload.sparse_values, record, ecc=ecc, pattern_spec=pattern_spec
    )
