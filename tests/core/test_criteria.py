"""Unit tests for the pruning criteria (magnitude / Wanda / SparseGPT)."""

import numpy as np
import pytest

from repro.core.criteria import (
    calibration_hessian,
    sparsegpt_prune,
    sparsegpt_scores,
    wanda_scores,
)
from repro.core.masks import unstructured_mask


def _layer(seed=0, out_f=16, in_f=24, samples=64):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(out_f, in_f))
    activations = rng.normal(size=(samples, in_f)) * np.exp(rng.normal(0, 0.5, size=in_f))
    return weights, activations


class TestWanda:
    def test_scales_by_activation_norm(self):
        w = np.ones((2, 3))
        x = np.zeros((4, 3))
        x[:, 0] = 1.0  # channel 0 loud, others silent
        scores = wanda_scores(w, x)
        assert scores[0, 0] > 0
        assert scores[0, 1] == 0.0

    def test_silent_channels_pruned_first(self):
        w, x = _layer(seed=1)
        x[:, 0] = 0.0
        scores = wanda_scores(w, x)
        mask = unstructured_mask(scores, 0.5)
        assert not mask[:, 0].any()

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wanda_scores(np.ones((2, 3)), np.ones((4, 5)))

    def test_rejects_non_2d_activations(self):
        with pytest.raises(ValueError):
            wanda_scores(np.ones((2, 3)), np.ones(3))


class TestHessian:
    def test_symmetric_positive_definite(self):
        _, x = _layer(seed=2)
        h = calibration_hessian(x)
        np.testing.assert_allclose(h, h.T)
        eigvals = np.linalg.eigvalsh(h)
        assert (eigvals > 0).all()

    def test_damping_regularises_rank_deficient(self):
        x = np.zeros((8, 4))
        x[:, 0] = 1.0  # rank 1
        h = calibration_hessian(x, damping=0.1)
        assert np.linalg.matrix_rank(h) == 4


class TestSparseGPTScores:
    def test_shape(self):
        w, x = _layer(seed=3)
        assert sparsegpt_scores(w, x).shape == w.shape

    def test_nonnegative(self):
        w, x = _layer(seed=4)
        assert (sparsegpt_scores(w, x) >= 0).all()

    def test_larger_weight_larger_score(self):
        w, x = _layer(seed=5)
        w2 = w.copy()
        w2[0, 0] = w[0, 0] * 10
        s1 = sparsegpt_scores(w, x)
        s2 = sparsegpt_scores(w2, x)
        assert s2[0, 0] > s1[0, 0]


class TestSparseGPTPrune:
    def test_mask_applied(self):
        w, x = _layer(seed=6)
        pruned, mask = sparsegpt_prune(w, x, lambda s: unstructured_mask(s, 0.5))
        assert not pruned[~mask].any()

    def test_compensation_beats_naive_zeroing(self):
        """OBS weight update must reduce reconstruction error vs plain
        masking -- the reason SparseGPT outperforms magnitude one-shot."""
        w, x = _layer(seed=7, out_f=24, in_f=32, samples=256)
        mask_fn = lambda s: unstructured_mask(s, 0.6)
        pruned, mask = sparsegpt_prune(w, x, mask_fn)
        naive = w * mask
        ref = x @ w.T
        err_obs = np.linalg.norm(ref - x @ pruned.T)
        err_naive = np.linalg.norm(ref - x @ naive.T)
        assert err_obs < err_naive

    def test_mask_shape_check(self):
        w, x = _layer(seed=8)
        with pytest.raises(ValueError):
            sparsegpt_prune(w, x, lambda s: np.ones((2, 2), dtype=bool))

    def test_full_density_keeps_weights(self):
        w, x = _layer(seed=9)
        pruned, mask = sparsegpt_prune(w, x, lambda s: np.ones_like(s, dtype=bool))
        np.testing.assert_allclose(pruned, w)

    def test_works_with_structured_masks(self):
        from repro.core.sparsify import tbs_sparsify

        w, x = _layer(seed=10, out_f=32, in_f=32)
        pruned, mask = sparsegpt_prune(w, x, lambda s: tbs_sparsify(s, m=8, sparsity=0.5).mask)
        assert not pruned[~mask].any()
        assert 0.3 < 1 - mask.mean() < 0.7
