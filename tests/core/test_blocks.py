"""Unit tests for repro.core.blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import (
    block_grid_shape,
    extract_block,
    iter_blocks,
    merge_from_blocks,
    pad_to_blocks,
    split_into_blocks,
)


class TestGrid:
    def test_exact_fit(self):
        assert block_grid_shape(16, 24, 8) == (2, 3)

    def test_ragged(self):
        assert block_grid_shape(17, 25, 8) == (3, 4)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            block_grid_shape(8, 8, 0)

    def test_iter_covers_matrix(self):
        seen = np.zeros((20, 13), dtype=int)
        for idx in iter_blocks(20, 13, 8):
            seen[idx.slices] += 1
        assert np.all(seen == 1)

    def test_iter_row_major(self):
        idxs = list(iter_blocks(16, 16, 8))
        assert [(i.row, i.col) for i in idxs] == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestPadding:
    def test_no_copy_when_aligned(self):
        a = np.ones((8, 8))
        assert pad_to_blocks(a, 8) is a

    def test_pads_with_zeros(self):
        a = np.ones((5, 7))
        p = pad_to_blocks(a, 4)
        assert p.shape == (8, 8)
        assert p[:5, :7].sum() == 35
        assert p.sum() == 35

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            pad_to_blocks(np.ones(8), 4)


class TestSplitMerge:
    def test_roundtrip_aligned(self):
        a = np.arange(64).reshape(8, 8).astype(float)
        blocks = split_into_blocks(a, 4)
        assert blocks.shape == (2, 2, 4, 4)
        back = merge_from_blocks(blocks, 8, 8)
        np.testing.assert_array_equal(a, back)

    def test_roundtrip_ragged(self):
        a = np.arange(5 * 7).reshape(5, 7).astype(float)
        blocks = split_into_blocks(a, 4)
        back = merge_from_blocks(blocks, 5, 7)
        np.testing.assert_array_equal(a, back)

    def test_block_contents(self):
        a = np.arange(16).reshape(4, 4)
        blocks = split_into_blocks(a, 2)
        np.testing.assert_array_equal(blocks[0, 1], [[2, 3], [6, 7]])

    def test_merge_rejects_non_square_blocks(self):
        with pytest.raises(ValueError):
            merge_from_blocks(np.zeros((1, 1, 2, 3)), 2, 3)

    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        m=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, rows, cols, m):
        rng = np.random.default_rng(rows * 41 + cols)
        a = rng.normal(size=(rows, cols))
        back = merge_from_blocks(split_into_blocks(a, m), rows, cols)
        np.testing.assert_allclose(a, back)


class TestExtractScatter:
    def test_extract_interior(self):
        a = np.arange(64).reshape(8, 8).astype(float)
        idx = next(i for i in iter_blocks(8, 8, 4) if (i.row, i.col) == (1, 1))
        np.testing.assert_array_equal(extract_block(a, idx, 4), a[4:, 4:])

    def test_extract_pads_edge(self):
        a = np.ones((5, 5))
        idx = next(i for i in iter_blocks(5, 5, 4) if (i.row, i.col) == (1, 1))
        block = extract_block(a, idx, 4)
        assert block.shape == (4, 4)
        assert block.sum() == 1  # only the (4,4) corner element is real
