"""Tests for mask validation."""

import numpy as np
import pytest

from repro.core.masks import make_mask, tile_mask, vegeta_mask
from repro.core.patterns import NMConfig, PatternFamily, PatternSpec
from repro.core.sparsify import tbs_sparsify
from repro.core.validate import validate_mask


def _rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def validate_tbs_result(result):
    """Validate a TBS result's mask against its own declared metadata."""
    return validate_mask(result.mask, PatternSpec(PatternFamily.TBS, m=result.m), tbs=result)


class TestValidGeneratorsPass:
    @pytest.mark.parametrize(
        "family", [PatternFamily.US, PatternFamily.TS, PatternFamily.RS_V, PatternFamily.RS_H, PatternFamily.TBS]
    )
    def test_own_generator_validates(self, family):
        spec = PatternSpec(family, m=8, sparsity=0.5)
        mask = make_mask(_rand((64, 64), 1), spec)
        report = validate_mask(mask, spec)
        assert report.ok, report.summary()

    def test_tbs_result_self_validates(self):
        res = tbs_sparsify(_rand((64, 64), 2), m=8, sparsity=0.75)
        assert validate_tbs_result(res).ok

    def test_transposed_tbs_validates(self):
        res = tbs_sparsify(_rand((64, 64), 3), m=8, sparsity=0.75)
        assert validate_tbs_result(res.transposed()).ok


class TestViolationsDetected:
    def test_ts_overfull_group(self):
        mask = np.zeros((1, 8), dtype=bool)
        mask[0, :5] = True  # 5 > N=4 in a 4:8 tile
        spec = PatternSpec(PatternFamily.TS, m=8, sparsity=0.5)
        report = validate_mask(mask, spec)
        assert not report.ok
        assert "group keeps 5" in str(report.violations[0])

    def test_rs_v_non_uniform_row(self):
        mask = np.zeros((1, 16), dtype=bool)
        mask[0, :3] = True  # group 0 keeps 3
        mask[0, 8] = True  # group 1 keeps 1
        spec = PatternSpec(PatternFamily.RS_V, m=8, sparsity=0.5)
        report = validate_mask(mask, spec)
        assert not report.ok
        assert "non-uniform" in str(report.violations[0])

    def test_tbs_invalid_block(self):
        # Max occupancy 3 in both dimensions: 3 is not a candidate N,
        # so the block is valid in neither direction.
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, :3] = True
        mask[1, 0] = mask[2, 0] = True
        spec = PatternSpec(PatternFamily.TBS, m=8, sparsity=0.5)
        report = validate_mask(mask, spec)
        assert not report.ok

    def test_tbs_metadata_mismatch(self):
        res = tbs_sparsify(_rand((16, 16), 4), m=8, sparsity=0.5)
        res.mask[0, :8] = True  # force a row beyond its declared N
        report = validate_tbs_result(res)
        assert not report.ok

    def test_us_always_valid(self):
        mask = np.random.default_rng(5).random((8, 8)) < 0.5
        assert validate_mask(mask, PatternSpec(PatternFamily.US)).ok


class TestReport:
    def test_summary_ok(self):
        spec = PatternSpec(PatternFamily.TS, m=8, sparsity=0.5)
        mask = tile_mask(_rand((8, 16), 6), NMConfig(4, 8))
        assert "valid" in validate_mask(mask, spec).summary()

    def test_summary_truncates(self):
        mask = np.ones((16, 8), dtype=bool)  # every 4:8 group overfull
        spec = PatternSpec(PatternFamily.TS, m=8, sparsity=0.5)
        report = validate_mask(mask, spec)
        assert "+11 more" in report.summary(limit=5)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            validate_mask(np.ones(8, dtype=bool), PatternSpec(PatternFamily.TS, sparsity=0.5))


class TestCrossFamily:
    def test_vegeta_mask_fails_ts_check(self):
        """A variable-N row-wise mask usually violates fixed-N tiles."""
        mask = vegeta_mask(_rand((64, 64), 7), m=8, sparsity=0.75)
        ts_spec = PatternSpec(PatternFamily.TS, m=8, sparsity=0.75)
        # fixed_n = 2; rows that chose N > 2 violate.
        report = validate_mask(mask, ts_spec)
        assert not report.ok

    def test_tile_mask_passes_rs_checks(self):
        """Fixed-N masks are a special case of row-wise variable N."""
        mask = tile_mask(_rand((32, 64), 8), NMConfig(2, 8))
        assert validate_mask(mask, PatternSpec(PatternFamily.RS_V, m=8, sparsity=0.75)).ok
