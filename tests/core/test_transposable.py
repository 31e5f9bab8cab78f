"""Tests for strictly-transposable N:M masks (the NM-T baseline)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.masks import unstructured_mask
from repro.core.similarity import mask_agreement
from repro.core.sparsify import tbs_sparsify
from repro.core.transposable import transposable_sparsify

from .transposable_oracle import is_transposable, solve_block


def _rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestIsTransposable:
    def test_identity_block(self):
        assert is_transposable(np.eye(8, dtype=bool), 1)

    def test_dense_row_violates(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0] = True
        assert not is_transposable(mask, 2)
        assert is_transposable(mask, 8)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            is_transposable(np.ones(4, dtype=bool), 2)

    def test_block_size_check(self):
        with pytest.raises(ValueError):
            is_transposable(np.ones((4, 4), dtype=bool), 2, m=8)


class TestBlockMask:
    def test_constraint_satisfied(self):
        mask = solve_block(_rand((8, 8), 1), 2)
        assert is_transposable(mask, 2)

    def test_transpose_also_valid(self):
        """The defining property: the mask works for W and W.T."""
        mask = solve_block(_rand((8, 8), 2), 2)
        assert is_transposable(mask.T, 2)

    def test_full_and_empty(self):
        assert solve_block(_rand((8, 8)), 0).sum() == 0
        assert solve_block(_rand((8, 8)), 8).all()

    def test_keeps_high_scores_first(self):
        scores = np.zeros((4, 4))
        scores[0, 0] = 10.0
        scores[1, 1] = 9.0
        mask = solve_block(scores, 1)
        assert mask[0, 0] and mask[1, 1]

    def test_diagonal_conflict_resolved(self):
        # Two huge scores in the same row: only one survives at N=1,
        # and the quota frees a different column for another row.
        scores = np.ones((4, 4)) * 0.1
        scores[0, 0] = 10.0
        scores[0, 1] = 9.0
        mask = solve_block(scores, 1)
        assert is_transposable(mask, 1)
        assert mask[0, 0] and not mask[0, 1]

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            solve_block(_rand((8, 8)), 9)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            solve_block(_rand((4, 8)), 2)

    @given(seed=st.integers(0, 100), n=st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_property_both_directions(self, seed, n):
        mask = solve_block(_rand((8, 8), seed), n)
        assert is_transposable(mask, n)
        assert is_transposable(mask.T, n)


class TestMatrixMask:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            transposable_sparsify(np.ones(8), m=8, sparsity=0.75)


class TestSparsify:
    def test_adaptive_n(self):
        scores = _rand((32, 32), 5)
        mask, block_n = transposable_sparsify(scores, m=8, sparsity=0.75)
        assert block_n.shape == (4, 4)
        assert set(np.unique(block_n)).issubset({0, 1, 2, 4, 8})

    def test_overall_sparsity(self):
        scores = _rand((128, 128), 6)
        mask, _ = transposable_sparsify(scores, m=8, sparsity=0.75)
        assert abs((1 - mask.mean()) - 0.75) < 0.1

    def test_subset_of_tbs_expressiveness(self):
        """NM-T masks are valid TBS masks; the converse is false -- so
        TBS tracks the unstructured optimum at least as well."""
        scores = _rand((64, 64), 7)
        us = unstructured_mask(scores, 0.75)
        nmt_mask, _ = transposable_sparsify(scores, m=8, sparsity=0.75)
        tbs = tbs_sparsify(scores, m=8, sparsity=0.75)
        assert mask_agreement(tbs.mask, us) >= mask_agreement(nmt_mask, us)


class TestBackendSelection:
    """``backend=`` threads through every transposable entry point."""

    def test_default_is_greedy_bit_identical(self):
        scores = _rand((32, 32), 8)
        default_mask, default_n = transposable_sparsify(scores, m=8, sparsity=0.75)
        greedy_mask, greedy_n = transposable_sparsify(
            scores, m=8, sparsity=0.75, backend="greedy"
        )
        assert np.array_equal(default_mask, greedy_mask)
        assert np.array_equal(default_n, greedy_n)

    @pytest.mark.parametrize("backend", ["greedy", "exact", "tsenor"])
    def test_all_backends_valid(self, backend):
        scores = _rand((32, 32), 9)
        block_mask = solve_block(scores[:8, :8], 3, backend=backend)
        assert is_transposable(block_mask, 3)

    @pytest.mark.parametrize("backend", ["greedy", "exact", "tsenor"])
    def test_sparsify_backends_share_block_n(self, backend):
        """Per-block N comes from the density heuristic, not the solver:
        every backend prunes to the same block-N grid."""
        scores = _rand((32, 32), 10)
        _, default_n = transposable_sparsify(scores, m=8, sparsity=0.75)
        mask, block_n = transposable_sparsify(
            scores, m=8, sparsity=0.75, backend=backend
        )
        assert np.array_equal(block_n, default_n)
        for br in range(4):
            for bc in range(4):
                block = mask[br * 8 : (br + 1) * 8, bc * 8 : (bc + 1) * 8]
                assert is_transposable(block, int(block_n[br, bc]))

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown tsolver"):
            transposable_sparsify(_rand((8, 8), 12), m=8, sparsity=0.75, backend="hungarian")
