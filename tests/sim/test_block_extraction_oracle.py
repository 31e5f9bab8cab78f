"""Block extraction from the packed mask equals the paths it replaced.

``sim.engine.block_segments`` and the codec count every block from the
packed mask (``repro.core.blocks``), and ``_block_costs`` prices each
distinct segment vector once and gathers the costs back.  Against the
oracles in ``tests/sim/engine_oracle.py``:

* the segments equal the int64 split-and-sum (:func:`block_segments_sum`)
  on every architecture, TB-STC without its codec included, at M = 4, 8
  and 16 on aligned and ragged layers;
* the codec's visible cycles and elements equal the gather-and-count
  (:func:`codec_visible_and_elements_gather`);
* the costs equal the per-block DVPE loop (:func:`block_costs_loop`)
  through ``float.hex`` on segment vectors full of repeats, at M = 4 to
  32 and in both count dtypes, and the DVPE is called on the distinct
  vectors only;
* a whole ``simulate()`` with the two oracles installed is unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import PatternFamily
from repro.hw.config import tb_stc
from repro.sim import engine
from repro.sim.baselines import arch_by_name
from repro.sim.engine import _block_costs, _codec_visible_and_elements, block_segments, simulate
from repro.workloads.generator import build_workload
from repro.workloads.layers import LayerSpec

from .engine_oracle import block_costs_loop, block_segments_sum, codec_visible_and_elements_gather
from .test_vectorized_equivalence import _result_fingerprint

_ARCHS = ["TC", "STC", "VEGETA", "HighLight", "RM-STC", "SGCN", "DVPE+FAN", "TB-STC"]
_FAMILY = {
    "TC": PatternFamily.US,
    "STC": PatternFamily.TS,
    "VEGETA": PatternFamily.RS_V,
    "HighLight": PatternFamily.RS_H,
    "RM-STC": PatternFamily.US,
    "SGCN": PatternFamily.US,
    "DVPE+FAN": PatternFamily.TBS,
    "TB-STC": PatternFamily.TBS,
}


def _config(arch, codec):
    return tb_stc(has_codec=False) if arch == "TB-STC" and not codec else arch_by_name(arch)


def _workload(arch, m, rows, cols, sparsity, seed):
    family = _FAMILY[arch]
    if family is PatternFamily.TS:
        sparsity = 0.5
    return build_workload(LayerSpec("blocks", rows, cols, 16), family, sparsity, m=m, seed=seed)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    arch=st.sampled_from(_ARCHS),
    codec=st.booleans(),
    m=st.sampled_from([4, 8, 16]),
    rows=st.sampled_from([32, 48, 37]),
    cols=st.sampled_from([32, 64, 45]),
    sparsity=st.sampled_from([0.5, 0.75, 0.875]),
)
def test_block_segments_match_split_and_sum(seed, arch, codec, m, rows, cols, sparsity):
    config = _config(arch, codec)
    workload = _workload(arch, m, rows, cols, sparsity, seed)
    counts, dirs = block_segments(workload, config)
    ref_counts, ref_dirs = block_segments_sum(workload, config)
    assert counts.shape == ref_counts.shape
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(dirs, ref_dirs) and dirs.dtype == ref_dirs.dtype


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    arch=st.sampled_from(["TB-STC", "DVPE+FAN"]),
    m=st.sampled_from([4, 8, 16]),
    rows=st.sampled_from([64, 37]),
    sparsity=st.sampled_from([0.5, 0.75, 0.875]),
    overlap=st.sampled_from([0.0, 5.0, 1e9]),
)
def test_codec_counts_match_gather_oracle(seed, arch, m, rows, sparsity, overlap):
    config = arch_by_name(arch)
    workload = _workload(arch, m, rows, 64, sparsity, seed)
    _, dirs = block_segments(workload, config)
    fast = _codec_visible_and_elements(workload, config, dirs, overlap_cycles=overlap)
    ref = codec_visible_and_elements_gather(workload, config, dirs, overlap_cycles=overlap)
    assert fast == ref


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_blocks=st.integers(0, 200),
    n_distinct=st.integers(1, 12),
    m=st.sampled_from([4, 8, 16, 32]),
    dtype=st.sampled_from([np.uint8, np.int64]),
    arch=st.sampled_from(_ARCHS),
    row_overhead=st.sampled_from([0.0, 0.05, 0.15]),
)
def test_distinct_costs_match_loop_oracle(
    seed, n_blocks, n_distinct, m, dtype, arch, row_overhead
):
    """Few distinct vectors repeated in any order: each is priced once."""
    from repro.hw.dvpe import DVPE

    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, m + 1, size=(n_distinct, m))
    counts = vectors[rng.integers(n_distinct, size=n_blocks)].astype(dtype)
    config = arch_by_name(arch, row_overhead_cycles=row_overhead)
    priced = []
    batch = DVPE.block_costs_batch

    def recording(self, row_counts):
        priced.append(np.array(row_counts))
        return batch(self, row_counts)

    engine.clear_cost_memo()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DVPE, "block_costs_batch", recording)
        fast = _block_costs(counts, config)
    ref = block_costs_loop(counts, config)
    assert [c.hex() for c in fast.tolist()] == [c.hex() for c in ref.tolist()]
    (seen,) = priced
    assert len(seen) == len(np.unique(counts, axis=0))


def test_tbs_layer_prices_fewer_vectors_than_blocks():
    """A TB-STC layer repeats some of its segment vectors (the empty and
    the full block, at least)."""
    workload = _workload("TB-STC", 8, 256, 256, 0.75, 0)
    counts, _ = block_segments(workload, tb_stc())
    assert len(np.unique(counts, axis=0)) < len(counts)
    engine.clear_cost_memo()
    fast = _block_costs(counts, tb_stc())
    ref = block_costs_loop(counts, tb_stc())
    assert [c.hex() for c in fast.tolist()] == [c.hex() for c in ref.tolist()]


@pytest.mark.parametrize("arch", _ARCHS)
def test_simulate_unchanged_with_the_oracles(arch):
    workload = _workload(arch, 8, 64, 48, 0.75, 1)
    config = arch_by_name(arch)
    engine.clear_cost_memo()
    whole = simulate(config, workload)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "block_segments", block_segments_sum)
        mp.setattr(engine, "_codec_visible_and_elements", codec_visible_and_elements_gather)
        engine.clear_cost_memo()
        whole_ref = simulate(config, workload)
    assert _result_fingerprint(whole) == _result_fingerprint(whole_ref)
