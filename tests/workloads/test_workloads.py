"""Tests for layer specs, synthetic weights and workload building."""

import numpy as np
import pytest

from repro.core.patterns import PatternFamily
from repro.workloads import (
    ISO_ACCURACY_SPARSITY,
    LayerSpec,
    MODEL_LAYERS,
    bert_layers,
    build_model_workload,
    build_workload,
    opt_6_7b_layers,
    resnet50_layers,
    synthetic_weights,
)


class TestLayerSpec:

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            LayerSpec("x", 0, 5, 6)

    def test_scaled_preserves_alignment(self):
        spec = LayerSpec("x", 256, 2304, 196).scaled(4)
        assert spec.rows % 8 == 0 and spec.cols % 8 == 0
        assert spec.rows == 64

    def test_scaled_floors_at_m(self):
        spec = LayerSpec("x", 16, 16, 16).scaled(100)
        assert spec.rows == 8 and spec.cols == 8

    def test_scale_one_identity(self):
        spec = LayerSpec("x", 64, 64, 64)
        assert spec.scaled(1) == spec

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            LayerSpec("x", 8, 8, 8).scaled(0)


class TestModelLayers:
    def test_bert_shapes(self):
        layers = bert_layers(seq_len=128)
        qkv = layers[0]
        assert (qkv.rows, qkv.cols, qkv.b_cols) == (2304, 768, 128)

    def test_opt_shapes(self):
        ffn = opt_6_7b_layers()[2]
        assert ffn.rows == 16384 and ffn.cols == 4096

    def test_resnet50_im2col(self):
        conv3x3 = next(l for l in resnet50_layers() if "conv4_3x3" in l.name)
        assert conv3x3.cols == 256 * 9

    def test_registry_aligned(self):
        for name, (layer_fn, repeats) in MODEL_LAYERS.items():
            assert len(layer_fn()) == len(repeats), name


class TestSyntheticWeights:
    def test_shape_and_determinism(self):
        a = synthetic_weights(32, 16, seed=1)
        b = synthetic_weights(32, 16, seed=1)
        assert a.shape == (32, 16)
        np.testing.assert_array_equal(a, b)

    def test_row_scale_variation(self):
        w = synthetic_weights(128, 64, seed=2, row_scale_sigma=1.0)
        row_norms = np.abs(w).mean(axis=1)
        assert row_norms.max() / row_norms.min() > 3.0

    def test_dead_rows_present(self):
        w = synthetic_weights(256, 64, seed=3, dead_row_fraction=0.2)
        row_norms = np.abs(w).mean(axis=1)
        assert (row_norms < 0.1 * np.median(row_norms)).any()

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            synthetic_weights(0, 4)


class TestBuildWorkload:
    def test_tbs_carries_metadata(self):
        layer = LayerSpec("t", 64, 64, 32)
        wl = build_workload(layer, PatternFamily.TBS, 0.75, seed=0)
        assert wl.tbs is not None
        assert wl.sparsity == pytest.approx(0.75, abs=0.08)

    def test_ts_saturates_at_half(self):
        """The paper's footnote: STC runs 4:8 whatever the target."""
        layer = LayerSpec("t", 64, 64, 32)
        wl = build_workload(layer, PatternFamily.TS, 0.875, seed=0)
        assert wl.sparsity == pytest.approx(0.5, abs=0.02)

    def test_scaling_applied(self):
        layer = LayerSpec("t", 256, 256, 128)
        wl = build_workload(layer, PatternFamily.US, 0.5, seed=0, scale=4)
        assert wl.shape == (64, 64)

    def test_macs_properties(self):
        layer = LayerSpec("t", 32, 32, 16)
        wl = build_workload(layer, PatternFamily.US, 0.5, seed=0)
        assert wl.dense_macs == 32 * 32 * 16
        assert wl.macs == wl.nnz * 16

    def test_all_families(self):
        layer = LayerSpec("t", 64, 64, 32)
        for family in PatternFamily:
            wl = build_workload(layer, family, 0.5, seed=1)
            assert wl.mask.shape == (64, 64)

    def test_shape_mismatch_rejected(self):
        from repro.workloads.generator import GEMMWorkload

        with pytest.raises(ValueError):
            GEMMWorkload("x", np.ones((4, 4)), np.ones((2, 2), dtype=bool), 4)


class TestGEMMWorkloadMaskDtype:
    """Regression: non-boolean masks used to pass through silently."""

    def test_int_01_mask_coerced_to_bool(self):
        from repro.workloads.generator import GEMMWorkload

        wl = GEMMWorkload("x", np.ones((4, 4)), np.eye(4, dtype=np.int64), 4)
        assert wl.mask.dtype == np.bool_
        assert wl.nnz == 4

    def test_float_01_mask_coerced_to_bool(self):
        from repro.workloads.generator import GEMMWorkload

        wl = GEMMWorkload("x", np.ones((4, 4)), np.eye(4), 4)
        assert wl.mask.dtype == np.bool_
        assert wl.sparsity == 0.75

    def test_non_binary_mask_rejected(self):
        from repro.workloads.generator import GEMMWorkload

        with pytest.raises(ValueError, match="mask must be boolean"):
            GEMMWorkload("x", np.ones((4, 4)), np.full((4, 4), 0.5), 4)


class TestModelWorkloads:
    def test_iso_accuracy_lookup(self):
        bundle = build_model_workload("resnet50", PatternFamily.TBS, scale=8)
        assert bundle.sparsity == ISO_ACCURACY_SPARSITY["resnet50"][PatternFamily.TBS]

    def test_explicit_sparsity(self):
        bundle = build_model_workload("bert", PatternFamily.US, sparsity=0.6, scale=8)
        assert bundle.sparsity == 0.6

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            build_model_workload("alexnet", PatternFamily.TBS)

    def test_layers_and_repeats_align(self):
        bundle = build_model_workload("bert", PatternFamily.TBS, scale=8)
        assert len(bundle.layers) == len(bundle.repeats)
        assert all(r > 0 for r in bundle.repeats)

    def test_tbs_runs_sparser_than_ts_iso_accuracy(self):
        """The Fig. 13 mechanism: flexible patterns earn higher sparsity."""
        for model in ("resnet50", "bert"):
            degrees = ISO_ACCURACY_SPARSITY[model]
            assert degrees[PatternFamily.TBS] >= degrees[PatternFamily.RS_V]
            assert degrees[PatternFamily.RS_V] >= degrees[PatternFamily.TS]
