"""Vectorized hot paths agree bit-exactly with their loop oracles.

The oracle rule (DESIGN.md §4b): ``src/`` holds one implementation of
every hot path, and the loop it replaced lives on as a test oracle
(``tests/formats/encode_oracle.py``, ``tests/sim/engine_oracle.py``,
``tests/hw/scheduler_oracle.py``).  This suite is the proof that the
two produce *identical* results -- not approximately equal: simulator
cycle counts and float energies are compared through ``float.hex`` so
a single-ulp divergence fails.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.base import EncodeSpec

from ..formats.eager_encode_oracle import as_encode
from ..formats.encode_oracle import ENCODE_ORACLES, ddc_encode_loop
from ..hw.scheduler_oracle import per_pe_busy, schedule_sparsity_aware_sort
from .engine_oracle import block_costs_loop, codec_visible_and_elements_loop


@contextmanager
def loop_oracles():
    """Every loop oracle installed where ``simulate()`` looks it up.

    ``_simulate`` calls the cost models and the schedulers through the
    names ``repro.sim.engine`` binds, and every format's ``encode``
    through the class, so each loop encode is installed as its class's
    ``encode``.  Direct schedules get the direct event loop, which stays
    in ``src/`` for ``record=True``.
    """
    from repro.formats.csr import CSRFormat
    from repro.formats.ddc import DDCFormat
    from repro.formats.sdc import SDCFormat
    from repro.hw.scheduler import _schedule_direct_reference
    from repro.sim import engine

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_block_costs", block_costs_loop)
        mp.setattr(engine, "_codec_visible_and_elements", codec_visible_and_elements_loop)
        mp.setattr(engine, "schedule_direct", _schedule_direct_reference)
        mp.setattr(engine, "schedule_sparsity_aware", schedule_sparsity_aware_sort)
        for cls in (CSRFormat, SDCFormat, DDCFormat):
            mp.setattr(cls, "encode", as_encode(ENCODE_ORACLES[cls.name]))
        yield


def _hexify(x):
    """Recursively map floats to their hex form so == means bit-equal."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _hexify(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_hexify(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# DVPE cost model
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_blocks=st.integers(1, 24),
    m=st.sampled_from([4, 8]),
    lanes=st.sampled_from([2, 4, 8]),
    port=st.sampled_from([1, 2, 4]),
    alternate=st.booleans(),
    depth=st.sampled_from([0, 2, 8]),
    balanced=st.booleans(),
)
def test_dvpe_batch_matches_scalar(seed, n_blocks, m, lanes, port, alternate, depth, balanced):
    from repro.hw.dvpe import DVPE, BlockWork

    rng = np.random.default_rng(seed)
    counts = rng.integers(0, m + 1, size=(n_blocks, m)).astype(np.int64)
    pe = DVPE(
        lanes=lanes,
        output_port_width=port,
        alternate_unit=alternate,
        alternate_buffer_depth=depth,
        intra_block_mapping=balanced,
    )
    batch = pe.block_costs_batch(counts)
    scalar = [
        pe.block_cost(BlockWork(tuple(int(c) for c in row), m=m)) for row in counts
    ]
    assert batch.tolist() == scalar


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_blocks=st.integers(1, 24),
    arch=st.sampled_from(["TC", "STC", "VEGETA", "HighLight", "RM-STC", "SGCN", "TB-STC"]),
    row_overhead=st.sampled_from([0.0, 0.05, 0.15, 0.2]),
)
def test_block_costs_match_loop_oracle(seed, n_blocks, arch, row_overhead):
    from repro.sim.baselines import arch_by_name
    from repro.sim.engine import _block_costs

    config = arch_by_name(arch)
    counts = np.random.default_rng(seed).integers(0, 9, size=(n_blocks, 8)).astype(np.int64)
    fast = _block_costs(counts, config, row_overhead=row_overhead)
    ref = block_costs_loop(counts, config, row_overhead=row_overhead)
    assert [c.hex() for c in fast.tolist()] == [c.hex() for c in ref.tolist()]


# ---------------------------------------------------------------------------
# schedulers
# ---------------------------------------------------------------------------


_COST_LISTS = st.one_of(
    st.lists(st.integers(0, 40), min_size=0, max_size=64),
    st.lists(st.floats(0.0, 40.0, allow_nan=False, width=64), min_size=0, max_size=64),
)


def _schedule_fields(res):
    # Scalar *types* may legitimately differ (an untouched PE's free
    # time stays int 0; float costs promote only touched slots), so
    # compare through float, which is exact for every cost magnitude
    # generated here, and hexify so equality means bit-equal.  Per-PE
    # busy time comes from the record=True placements.
    return (
        float(res.makespan).hex(),
        float(res.total_work).hex(),
        res.num_pes,
        [float(b).hex() for b in per_pe_busy(res)],
        [
            (int(a.block), int(a.pe), float(a.start).hex(), float(a.end).hex())
            for a in res.assignments
        ],
    )


@settings(max_examples=40, deadline=None)
@given(costs=_COST_LISTS, num_pes=st.integers(1, 8), record=st.booleans())
def test_schedule_direct_matches_reference(costs, num_pes, record):
    from repro.hw.scheduler import _schedule_direct_reference, schedule_direct

    fast = schedule_direct(costs, num_pes, record=record)
    ref = _schedule_direct_reference(costs, num_pes, record=record)
    assert _schedule_fields(fast) == _schedule_fields(ref)


@settings(max_examples=40, deadline=None)
@given(
    costs=_COST_LISTS,
    num_pes=st.integers(1, 8),
    window=st.integers(1, 16),
    record=st.booleans(),
)
def test_schedule_sparsity_aware_matches_reference(costs, num_pes, window, record):
    from repro.hw.scheduler import schedule_sparsity_aware

    fast = schedule_sparsity_aware(costs, num_pes, window=window, record=record)
    ref = schedule_sparsity_aware_sort(costs, num_pes, window=window, record=record)
    assert _schedule_fields(fast) == _schedule_fields(ref)


# ---------------------------------------------------------------------------
# storage formats
# ---------------------------------------------------------------------------


def _random_sparse(seed, rows, cols, density):
    rng = np.random.default_rng(seed)
    keep = rng.random((rows, cols)) < density
    return np.where(keep, rng.normal(size=(rows, cols)), 0.0)


def _assert_encoded_equal(a, b):
    assert a.format_name == b.format_name
    assert a.shape == b.shape
    assert a.nnz == b.nnz
    assert a.value_bytes == b.value_bytes
    assert a.index_bytes == b.index_bytes
    assert a.meta_bytes == b.meta_bytes
    assert a.segments == b.segments
    assert sorted(a.arrays) == sorted(b.arrays)
    for key in a.arrays:
        left, right = a.arrays[key], b.arrays[key]
        if left.dtype == object:
            assert len(left) == len(right), key
            for i, (x, y) in enumerate(zip(left, right)):
                if isinstance(x, np.ndarray):
                    assert np.array_equal(x, y), (key, i)
                else:
                    assert x == y, (key, i)
        else:
            assert np.array_equal(left, right), key


def _make_format(name):
    from repro.formats.bitmap import BitmapFormat
    from repro.formats.csr import CSRFormat
    from repro.formats.ddc import DDCFormat
    from repro.formats.sdc import SDCFormat

    return {
        "ddc": DDCFormat,
        "sdc": lambda: SDCFormat(group_rows=8),
        "csr": CSRFormat,
        "bitmap": BitmapFormat,
    }[name]()


@settings(max_examples=25, deadline=None)
@given(
    fmt_name=st.sampled_from(["ddc", "sdc", "csr", "bitmap"]),
    seed=st.integers(0, 2**31 - 1),
    rows=st.sampled_from([8, 16, 24]),
    cols=st.sampled_from([8, 16, 32]),
    density=st.floats(0.0, 1.0),
)
def test_format_encode_matches_reference(fmt_name, seed, rows, cols, density):
    fmt = _make_format(fmt_name)
    dense = _random_sparse(seed, rows, cols, density)
    fast = fmt.encode(dense, EncodeSpec(block_size=8))
    # Bitmap has no loop oracle; it is held to its round trip below.
    oracle = ENCODE_ORACLES.get(fmt_name)
    ref = oracle(fmt, dense, EncodeSpec(block_size=8)) if oracle else fast
    _assert_encoded_equal(fast, ref)
    assert np.array_equal(fmt.decode(fast), dense)
    assert np.array_equal(fmt.decode(ref), dense)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.sampled_from([16, 32]),
    cols=st.sampled_from([16, 32]),
    sparsity=st.sampled_from([0.5, 0.75, 0.875]),
)
def test_ddc_encode_with_tbs_matches_reference(seed, rows, cols, sparsity):
    from repro.core.sparsify import tbs_sparsify
    from repro.formats.ddc import DDCFormat

    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(rows, cols))
    tbs = tbs_sparsify(weights, m=8, sparsity=sparsity)
    dense = np.where(tbs.mask, weights, 0.0)
    fmt = DDCFormat()
    fast = fmt.encode(dense, EncodeSpec(tbs=tbs, block_size=8))
    ref = ddc_encode_loop(fmt, dense, EncodeSpec(tbs=tbs, block_size=8))
    _assert_encoded_equal(fast, ref)
    assert np.array_equal(fmt.decode(fast), dense)


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    sparsity=st.sampled_from([0.5, 0.75, 0.875]),
)
def test_codec_counts_match_loop_oracle(seed, sparsity):
    """With nothing to hide behind (no overlap window) every conversion
    cycle shows, so the visible count exposes the codec's cycle total,
    which the whole-simulator fingerprint mostly cannot see.  The whole
    ``simulate()`` must also equal a run with only the codec loop
    installed.  Both machines with a codec, each at M = 4, 8 and 16."""
    from repro.core.patterns import PatternFamily
    from repro.sim import engine
    from repro.sim.baselines import arch_by_name, simulate_arch
    from repro.sim.engine import _codec_visible_and_elements, block_segments
    from repro.workloads.generator import build_workload
    from repro.workloads.layers import LayerSpec

    layer = LayerSpec("equiv", 64, 64, 16)
    for arch in ("TB-STC", "DVPE+FAN"):
        config = arch_by_name(arch)
        assert config.has_codec
        for m in (4, 8, 16):
            workload = build_workload(layer, PatternFamily.TBS, sparsity, m=m, seed=seed)
            _, dirs = block_segments(workload, config)
            fast = _codec_visible_and_elements(workload, config, dirs, overlap_cycles=0.0)
            ref = codec_visible_and_elements_loop(workload, config, dirs, overlap_cycles=0.0)
            assert fast == ref, (arch, m)

            whole = simulate_arch(config, workload)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(
                    engine, "_codec_visible_and_elements", codec_visible_and_elements_loop
                )
                whole_ref = simulate_arch(config, workload)
            assert _result_fingerprint(whole) == _result_fingerprint(whole_ref), (arch, m)


# ---------------------------------------------------------------------------
# full simulator
# ---------------------------------------------------------------------------


def _result_fingerprint(res):
    return _hexify(
        {
            "cycles": int(res.cycles),
            "compute_cycles": int(res.compute_cycles),
            "memory_cycles": int(res.memory_cycles),
            "codec_visible_cycles": int(res.codec_visible_cycles),
            "macs": int(res.macs),
            "dram_bytes": float(res.dram_bytes),
            "total_j": float(res.energy.total_j),
            "energy_components": {k: float(v) for k, v in res.energy.components.items()},
            "compute_utilization": float(res.compute_utilization),
            "bandwidth_utilization": float(res.bandwidth_utilization),
            "breakdown": {k: float(v) for k, v in res.breakdown.items()},
        }
    )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    arch=st.sampled_from(["TC", "STC", "VEGETA", "HighLight", "RM-STC", "TB-STC"]),
    sparsity=st.sampled_from([0.5, 0.75, 0.875]),
)
def test_simulate_bit_exact_vs_reference(seed, arch, sparsity):
    from repro.core.patterns import PatternFamily
    from repro.sim.baselines import ARCH_FAMILY, arch_by_name, simulate_arch
    from repro.workloads.generator import build_workload
    from repro.workloads.layers import LayerSpec

    config = arch_by_name(arch)
    family = ARCH_FAMILY.get(arch, PatternFamily.TBS)
    layer = LayerSpec("equiv", 32, 32, 16)
    workload = build_workload(layer, family, sparsity, m=8, seed=seed)

    fast = simulate_arch(config, workload)
    with loop_oracles():
        ref = simulate_arch(config, workload)
    assert _result_fingerprint(fast) == _result_fingerprint(ref)
