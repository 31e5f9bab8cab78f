"""Unit tests for Algorithm 1 (repro.core.sparsify)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.masks import unstructured_mask
from repro.core.patterns import Direction
from repro.core.similarity import mask_agreement
from repro.core.sparsify import tbs_sparsify


def _rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestTBSSparsify:
    def test_mask_shape_and_dtype(self):
        res = tbs_sparsify(_rand((32, 32)), m=8, sparsity=0.5)
        assert res.mask.shape == (32, 32)
        assert res.mask.dtype == bool

    def test_block_nm_constraint_in_chosen_direction(self):
        res = tbs_sparsify(_rand((64, 64), seed=1), m=8, sparsity=0.75)
        n_br, n_bc = res.block_n.shape
        for br in range(n_br):
            for bc in range(n_bc):
                block = res.mask[br * 8 : (br + 1) * 8, bc * 8 : (bc + 1) * 8]
                n = res.block_n[br, bc]
                if res.block_direction[br, bc] == Direction.ROW.value:
                    assert (block.sum(axis=1) == n).all()
                else:
                    assert (block.sum(axis=0) == n).all()

    def test_block_nnz_is_multiple_of_m(self):
        # The balance property (Sec. VI-B2) the intra-block mapper relies on.
        res = tbs_sparsify(_rand((64, 64), seed=2), m=8, sparsity=0.5)
        blocks = res.mask.reshape(8, 8, 8, 8).swapaxes(1, 2)
        nnz = blocks.sum(axis=(2, 3))
        assert (nnz % 8 == 0).all()
        np.testing.assert_array_equal(nnz, res.block_n * 8)

    def test_overall_sparsity_near_target(self):
        for target in (0.5, 0.75, 0.875):
            res = tbs_sparsify(_rand((128, 128), seed=3), m=8, sparsity=target)
            assert abs(res.sparsity - target) < 0.08

    def test_closer_to_us_than_single_direction(self):
        """Choosing per-block direction can only improve L1 vs row-only."""
        scores = _rand((64, 64), seed=4)
        us = unstructured_mask(scores, 0.75)
        res = tbs_sparsify(scores, m=8, sparsity=0.75, us_mask=us)
        # Build the row-only variant with the same per-block N.
        from repro.core.masks import topn_along_last
        from repro.core.blocks import merge_from_blocks, split_into_blocks

        blocks = split_into_blocks(np.abs(scores), 8)
        row_only = merge_from_blocks(topn_along_last(blocks, res.block_n[:, :, None]), 64, 64)
        assert mask_agreement(res.mask, us) >= mask_agreement(row_only, us)

    def test_candidate_restriction_respected(self):
        res = tbs_sparsify(_rand((32, 32), seed=5), m=8, sparsity=0.5, candidates=(0, 4, 8))
        assert set(np.unique(res.block_n)).issubset({0, 4, 8})

    def test_dense_region_gets_full_block(self):
        scores = np.full((16, 16), 1e-6)
        scores[:8, :8] = 10.0 + _rand((8, 8), seed=6) * 0.1
        res = tbs_sparsify(scores, m=8, sparsity=0.75)
        assert res.block_n[0, 0] == 8
        assert res.block_n[1, 1] == 0

    def test_empty_and_dense_blocks_are_other(self):
        scores = np.full((16, 16), 1e-6)
        scores[:8, :8] = 10.0
        res = tbs_sparsify(scores, m=8, sparsity=0.75)
        hist = res.direction_histogram()
        assert hist["other"] >= 2

    def test_precomputed_us_mask(self):
        scores = _rand((32, 32), seed=7)
        us = unstructured_mask(scores, 0.5)
        res1 = tbs_sparsify(scores, m=8, sparsity=0.5, us_mask=us)
        res2 = tbs_sparsify(scores, m=8, sparsity=0.5)
        np.testing.assert_array_equal(res1.mask, res2.mask)

    def test_us_mask_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tbs_sparsify(_rand((32, 32)), m=8, us_mask=np.ones((8, 8), dtype=bool))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            tbs_sparsify(np.ones(16), m=8)

    def test_ragged_shapes_supported(self):
        res = tbs_sparsify(_rand((30, 50), seed=8), m=8, sparsity=0.5)
        assert res.mask.shape == (30, 50)
        assert res.block_n.shape == (4, 7)

    @given(st.floats(0.3, 0.9), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_property_valid_tbs(self, sparsity, seed):
        """Every output block satisfies N:M in its declared direction."""
        scores = _rand((32, 32), seed=seed)
        res = tbs_sparsify(scores, m=8, sparsity=sparsity)
        for br in range(4):
            for bc in range(4):
                block = res.mask[br * 8 : (br + 1) * 8, bc * 8 : (bc + 1) * 8]
                n = res.block_n[br, bc]
                axis = 1 if res.block_direction[br, bc] == Direction.ROW.value else 0
                assert block.sum(axis=axis).max(initial=0) <= n


class TestDirectionChoice:
    def test_dense_rows_choose_col_direction(self):
        """Non-zeros concentrated in 2 dense rows: only the independent-dim
        (column-wise) N:M can keep whole rows -- each column retains its
        top-2 entries, which are exactly the two strong rows."""
        scores = np.full((8, 8), 0.01)
        scores[1, :] = 5.0
        scores[6, :] = 4.0
        res = tbs_sparsify(scores, m=8, sparsity=0.75)
        assert res.block_direction[0, 0] == Direction.COL.value
        assert res.mask[1].all() and res.mask[6].all()

    def test_dense_columns_choose_row_direction(self):
        """Non-zeros concentrated in 2 dense columns: the reduction-dim
        (row-wise) N:M keeps them -- each row retains its top-2 entries."""
        scores = np.full((8, 8), 0.01)
        scores[:, 1] = 5.0
        scores[:, 6] = 4.0
        res = tbs_sparsify(scores, m=8, sparsity=0.75)
        assert res.block_direction[0, 0] == Direction.ROW.value
        assert res.mask[:, 1].all() and res.mask[:, 6].all()

    def test_row_structured_scores_choose_row(self):
        scores = np.full((8, 8), 0.01)
        rng = np.random.default_rng(3)
        # each row has 2 distinct strong positions -> row-wise 2:8 fits.
        for r in range(8):
            cols = rng.choice(8, size=2, replace=False)
            scores[r, cols] = 5.0
        res = tbs_sparsify(scores, m=8, sparsity=0.75)
        assert res.block_direction[0, 0] == Direction.ROW.value
        assert res.mask.sum() == 16


class TestTransposition:
    """The paper's key insight: TBS masks transpose into TBS masks."""

    def test_transposed_mask_is_transpose(self):
        res = tbs_sparsify(_rand((32, 48), seed=20), m=8, sparsity=0.75)
        t = res.transposed()
        np.testing.assert_array_equal(t.mask, res.mask.T)
        assert t.shape == (48, 32)

    def test_directions_flip(self):
        res = tbs_sparsify(_rand((32, 32), seed=21), m=8, sparsity=0.75)
        t = res.transposed()
        np.testing.assert_array_equal(
            t.block_direction, 1 - res.block_direction.T
        )
        np.testing.assert_array_equal(t.block_n, res.block_n.T)

    def test_transposed_satisfies_tbs_constraint(self):
        """Every block of the transposed mask obeys N:M in its declared
        direction -- i.e. the backward-pass weights are valid TBS."""
        res = tbs_sparsify(_rand((64, 64), seed=22), m=8, sparsity=0.75)
        t = res.transposed()
        for br in range(t.block_n.shape[0]):
            for bc in range(t.block_n.shape[1]):
                block = t.mask[br * 8 : (br + 1) * 8, bc * 8 : (bc + 1) * 8]
                n = t.block_n[br, bc]
                axis = 1 if t.block_direction[br, bc] == Direction.ROW.value else 0
                assert block.sum(axis=axis).max(initial=0) <= n

    def test_double_transpose_identity(self):
        res = tbs_sparsify(_rand((32, 40), seed=23), m=8, sparsity=0.5)
        tt = res.transposed().transposed()
        np.testing.assert_array_equal(tt.mask, res.mask)
        np.testing.assert_array_equal(tt.block_direction, res.block_direction)

    def test_sparsity_preserved(self):
        res = tbs_sparsify(_rand((32, 32), seed=24), m=8, sparsity=0.75)
        assert res.transposed().sparsity == res.sparsity
