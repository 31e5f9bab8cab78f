"""Unit tests for repro.core.similarity."""

import numpy as np
import pytest

from repro.core.masks import unstructured_mask
from repro.core.similarity import mask_agreement, pattern_similarity_sweep


def _rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestAgreement:
    def test_identical_masks(self):
        mask = unstructured_mask(_rand((16, 16)), 0.5)
        assert mask_agreement(mask, mask) == 1.0

    def test_complement_masks(self):
        mask = unstructured_mask(_rand((16, 16)), 0.5)
        assert mask_agreement(mask, ~mask) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mask_agreement(np.ones((2, 2), dtype=bool), np.ones((3, 3), dtype=bool))

    def test_empty_masks(self):
        empty = np.zeros((0, 0), dtype=bool)
        assert mask_agreement(empty, empty) == 1.0

    def test_agreement_is_one_minus_normalised_l1(self):
        a = unstructured_mask(_rand((16, 16), 1), 0.5)
        b = unstructured_mask(_rand((16, 16), 2), 0.5)
        l1 = np.abs(a.astype(int) - b.astype(int)).sum()
        assert mask_agreement(a, b) == pytest.approx(1 - l1 / a.size)


class TestSweep:
    def test_tbs_most_similar_to_us(self):
        """Fig. 4(b): TBS similarity with US exceeds the other patterns."""
        scores = _rand((128, 128), seed=3)
        sims = pattern_similarity_sweep(scores, sparsity=0.75, m=8)
        assert sims["TBS"] == max(sims.values())

    def test_similarity_range(self):
        sims = pattern_similarity_sweep(_rand((64, 64), seed=4), sparsity=0.5)
        assert all(0.0 <= v <= 1.0 for v in sims.values())

    def test_tbs_in_paper_band_on_structured_weights(self):
        """On weights with realistic block structure TBS reaches the
        paper's 85-92% similarity band (Fig. 4(b))."""
        rng = np.random.default_rng(5)
        # Per-row scale variation mimics trained-layer statistics.
        scale = np.exp(rng.normal(0, 0.8, size=(128, 1)))
        scores = rng.normal(size=(128, 128)) * scale
        sims = pattern_similarity_sweep(scores, sparsity=0.75, m=8)
        assert sims["TBS"] > 0.85
