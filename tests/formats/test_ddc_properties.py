"""Property-based tests for DDC inference and format invariants."""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import block_grid_shape
from repro.core.patterns import Direction
from repro.core.sparsify import tbs_sparsify
from repro.formats import CSRFormat, DDCFormat, EncodeSpec, SDCFormat
from repro.formats.ddc import DDC_INFO_DTYPE

from .encode_oracle import ddc_encode_loop, infer_block_pattern


class TestInferBlockPattern:
    def test_row_uniform(self):
        block = np.zeros((8, 8))
        block[:, :2] = 1.0  # every row keeps 2
        n, direction, exact = infer_block_pattern(block)
        assert (n, direction, exact) == (2, Direction.ROW, True)

    def test_col_uniform_only(self):
        block = np.zeros((8, 8))
        block[:3, 0] = 1.0
        block[2:5, 1] = 1.0
        block[4:7, 2] = 1.0  # columns 0-2 keep 3 each; rows vary
        n, direction, exact = infer_block_pattern(block)
        assert direction is Direction.COL and n == 3 and exact

    def test_empty_block_is_row_zero(self):
        n, direction, exact = infer_block_pattern(np.zeros((8, 8)))
        assert n == 0 and exact

    def test_irregular_block_not_exact(self):
        rng = np.random.default_rng(0)
        block = rng.normal(size=(8, 8)) * (rng.random((8, 8)) < 0.4)
        # Unless the random block is accidentally uniform, expect repair.
        n, direction, exact = infer_block_pattern(block)
        assert 0 <= n <= 8

    @given(seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_inferred_n_covers_all_lanes(self, seed):
        """The inferred (n, direction) never under-provisions storage."""
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(8, 8)) * (rng.random((8, 8)) < 0.35)
        n, direction, _ = infer_block_pattern(block)
        counts = (
            np.count_nonzero(block, axis=1)
            if direction is Direction.ROW
            else np.count_nonzero(block, axis=0)
        )
        assert counts.max(initial=0) <= n


class TestFootprintInvariants:
    @given(seed=st.integers(0, 60), sparsity=st.sampled_from([0.5, 0.75, 0.875]))
    @settings(max_examples=15, deadline=None)
    def test_ddc_never_larger_than_groupwise_sdc(self, seed, sparsity):
        """DDC's per-block compression beats row-group-aligned SDC on
        every TBS matrix (no padding, tighter indices)."""
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(64, 64))
        res = tbs_sparsify(w, m=8, sparsity=sparsity)
        sparse = w * res.mask
        ddc = DDCFormat().encode(sparse, EncodeSpec(tbs=res))
        sdc = SDCFormat(group_rows=8).encode(sparse)
        assert ddc.total_bytes <= sdc.total_bytes + 2 * 64  # info table slack

    @given(seed=st.integers(0, 60))
    @settings(max_examples=15, deadline=None)
    def test_csr_value_bytes_exact(self, seed):
        rng = np.random.default_rng(seed)
        sparse = rng.normal(size=(32, 32)) * (rng.random((32, 32)) < 0.3)
        enc = CSRFormat().encode(sparse)
        assert enc.value_bytes == np.count_nonzero(sparse) * 2

    @given(seed=st.integers(0, 60))
    @settings(max_examples=15, deadline=None)
    def test_segments_within_footprint(self, seed):
        """No format's trace reads past its own storage footprint."""
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(40, 40))
        res = tbs_sparsify(w, m=8, sparsity=0.75)
        sparse = w * res.mask
        for fmt in (DDCFormat(), SDCFormat(group_rows=8)):
            enc = fmt.encode(sparse, EncodeSpec(tbs=res if fmt.name == "ddc" else None))
            if enc.segments:
                assert max(s.end for s in enc.segments) <= enc.total_bytes + 8


class TestBlockTablesMatchLoop:
    """The vectorized encode fills the same per-field block tables as
    the per-block loop oracle, on inputs the TBS solver never
    produces: ragged shapes, M=4, signed zeros and NaNs, and Info
    metadata whose N is below a lane's count (the lane is truncated) or
    above it (the lane is padded)."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(0, 37),
        cols=st.integers(0, 37),
        m=st.sampled_from([4, 8]),
        density=st.floats(0.0, 1.0),
        given_pattern=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_encode_matches_reference_loop(self, seed, rows, cols, m, density, given_pattern):
        rng = np.random.default_rng(seed)
        dense = np.where(rng.random((rows, cols)) < density, rng.normal(size=(rows, cols)), 0.0)
        if dense.size:
            dense[rng.integers(rows, size=2), rng.integers(cols, size=2)] = (-0.0, np.nan)
        tbs = None
        if given_pattern:
            grid = block_grid_shape(rows, cols, m)
            tbs = SimpleNamespace(
                m=m,
                block_n=rng.integers(0, m + 1, size=grid),
                block_direction=rng.integers(0, 2, size=grid),
            )
        spec = EncodeSpec(tbs=tbs, block_size=m)
        fmt = DDCFormat()
        fast = fmt.encode(dense, spec)
        ref = ddc_encode_loop(fmt, dense, spec)
        assert fast.arrays["info"].dtype == DDC_INFO_DTYPE
        assert sorted(fast.arrays) == sorted(ref.arrays)
        for key in fast.arrays:
            assert fast.arrays[key].dtype == ref.arrays[key].dtype, key
            np.testing.assert_array_equal(fast.arrays[key], ref.arrays[key], err_msg=key)
        assert (fast.nnz, fast.value_bytes, fast.index_bytes, fast.meta_bytes) == (
            ref.nnz,
            ref.value_bytes,
            ref.index_bytes,
            ref.meta_bytes,
        )
        for orientation in ("forward", "transposed"):
            assert fast.trace(orientation) == ref.trace(orientation), orientation
        if not given_pattern:
            np.testing.assert_array_equal(fmt.decode(fast), np.where(dense == 0, 0.0, dense))
