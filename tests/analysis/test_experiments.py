"""Structure/sanity tests for the experiment drivers.

These run at toy sizes so the full suite stays fast; the paper-shape
assertions (orderings, claimed ratios) live in ``benchmarks/`` where
they run at proper sizes.
"""

import numpy as np
import pytest

from repro.analysis.experiments import (
    ACCURACY_FAMILIES,
    capture_layer_inputs,
    run_fig1_pareto,
    run_fig4_maskspace,
    run_fig6_datapath_power,
    run_fig7_both_passes,
    run_fig12_layerwise,
    run_fig13_end2end,
    run_fig14_breakdown,
    run_fig15_bandwidth,
    run_fig15_block_size,
    run_fig15_quantization,
    run_fig15_sparsity_sweep,
    run_fig16_codec_ablation,
    run_fig16_scheduling_ablation,
    run_fig17_distribution,
    run_fig18_convergence,
    run_table1,
    run_table2,
    run_table3,
)
from repro.nn.models import make_cnn, make_mlp, prunable_layers
from repro.runtime.state import capture_masks, capture_model, restore_masks, restore_model
from repro.workloads.layers import LayerSpec


class TestStateHelpers:
    def test_capture_restore_roundtrip(self):
        """A CNN's parameters, BatchNorm running statistics and masks come
        back from the arrays a training cell holds, into a fresh model."""
        x = np.random.default_rng(0).normal(size=(8, 3, 8, 8))
        model = make_cnn(channels=3, width=4, n_classes=4, seed=0)
        model(x)  # a train-mode pass moves the running statistics
        layers = prunable_layers(model)
        layers[0].set_mask(np.abs(layers[0].weight_matrix()) > 0.1)
        model.eval()
        expected = model(x)
        arrays = {**capture_model(model), **capture_masks(layers)}
        assert any(key.startswith("buffer.") for key in arrays)

        fresh = make_cnn(channels=3, width=4, n_classes=4, seed=1)
        restore_model(fresh, arrays)
        restore_masks(prunable_layers(fresh), arrays)
        fresh.eval()
        np.testing.assert_array_equal(fresh(x), expected)
        assert capture_model(fresh).keys() == capture_model(model).keys()
        for key, value in capture_model(fresh).items():
            np.testing.assert_array_equal(value, arrays[key])

    def test_capture_layer_inputs(self):
        model = make_mlp(8, 16, 4, depth=3, seed=1)
        acts = capture_layer_inputs(model, np.random.default_rng(0).normal(size=(10, 8)))
        layers = prunable_layers(model)
        assert set(acts) == {id(l) for l in layers}
        for layer in layers:
            assert acts[id(layer)].shape == (10, layer.in_features)


class TestAccuracyDrivers:
    def test_table1_structure(self):
        res = run_table1(tasks=(("mlp", 0.75),), seeds=(0,), epochs=2)
        assert set(res) == {"mlp"}
        assert set(res["mlp"]) == {"Dense"} | {f.name for f in ACCURACY_FAMILIES}
        assert all(0.0 <= v <= 1.0 for v in res["mlp"].values())

    def test_table2_structure(self):
        res = run_table2(tasks=(("mlp", 0.5),), criteria=("wanda",), seeds=(0,), epochs=2)
        assert set(res) == {"mlp/wanda"}
        assert "TBS" in res["mlp/wanda"]

    def test_table2_magnitude_criterion(self):
        res = run_table2(tasks=(("mlp", 0.5),), criteria=("magnitude",), seeds=(0,), epochs=2)
        assert "mlp/magnitude" in res

    def test_fig18_curves(self):
        curves = run_fig18_convergence(epochs=3, seed=0)
        assert set(curves) == {"dense", "US", "TBS", "TBS_sparsity"}
        assert len(curves["dense"]) == 3


class TestPatternDrivers:
    def test_fig4(self):
        res = run_fig4_maskspace()
        assert res["similarity"]["TBS"] > 0.7
        assert res["log2_maskspace"]["TBS"] > res["log2_maskspace"]["TS"]

    def test_fig17(self):
        res = run_fig17_distribution(sparsities=(0.75,), seed=0)
        total = res["Total"]
        assert sum(total.values()) == pytest.approx(1.0)
        assert set(total) == {"row", "col", "other"}


class TestHardwareDrivers:
    def test_table3(self):
        res = run_table3()
        assert res["area_mm2"]["Total"] == pytest.approx(1.47, rel=0.01)
        assert res["power_mw"]["Total"] == pytest.approx(200.59, rel=0.01)

    def test_fig6(self):
        res = run_fig6_datapath_power()
        assert res["ratio"] > 1.5

    def test_fig7(self):
        res = run_fig7_both_passes(sparsities=(0.75,), size=64)
        row = {fmt: res[f"sparsity=75% {fmt}"]["forward_util"] for fmt in ("ddc", "sdc", "csr")}
        assert row["ddc"] > row["sdc"] and row["ddc"] > row["csr"]

    def test_fig12_structure(self):
        layer = LayerSpec("t", 256, 128, 32)
        res = run_fig12_layerwise(layers=[layer], sparsities=(0.75,), scale=1)
        assert "speedup@75%" in res["t"]
        assert res["t"]["speedup@75%"]["TC"] == pytest.approx(1.0)

    def test_fig13_structure(self):
        res = run_fig13_end2end(models=("bert",), arch_names=("TC", "TB-STC"), scale=16)
        assert res["bert"]["speedup"]["TB-STC"] > 1.0

    def test_fig14(self):
        res = run_fig14_breakdown(scale=8)
        for shares in res.values():
            assert shares["codec_fraction"] < 0.25


class TestSensitivityDrivers:
    def test_fig15_block_size(self):
        res = run_fig15_block_size(block_sizes=(8, 16), scale=8, with_accuracy=False)
        assert set(res) == {8, 16}
        assert all(v["speedup"] > 0 for v in res.values())

    def test_fig15_quantization(self):
        res = run_fig15_quantization(epochs=3, scale=8)
        assert res["extra_speedup"] >= 1.0
        assert res["accuracy_drop"] < 0.3

    def test_fig15_bandwidth_monotone(self):
        res = run_fig15_bandwidth(bandwidths=(32, 128, 512), scale=8)
        values = list(res.values())
        assert values == sorted(values)
        assert res[32] == pytest.approx(1.0)

    def test_fig15_sparsity_sweep(self):
        # scale=4 keeps the layer big enough that the architectures are
        # not latency-dominated (tinier scales make SGCN's 4x bandwidth
        # win everything outright).
        res = run_fig15_sparsity_sweep(sparsities=(0.5, 0.95), scale=4)
        assert set(res) == {0.5, 0.95}
        # SGCN catches up as sparsity rises (the Fig. 15(d) crossover).
        assert res[0.95]["tb_over_sgcn"] < res[0.5]["tb_over_sgcn"]


class TestAblationDrivers:
    def test_fig16_codec(self):
        res = run_fig16_codec_ablation(scale=4)
        assert res["TB-STC (DDC+codec)"] == pytest.approx(1.0)
        assert all(v >= 1.0 for v in res.values())

    def test_fig16_scheduling(self):
        res = run_fig16_scheduling_ablation(scale=4)
        assert res["utilization"]["gain"] > 1.0
        assert res["fan_edp"]["normalized"] > 1.0


class TestParetoDriver:
    def test_fig1_structure(self):
        res = run_fig1_pareto(seeds=(0,), sparsities=(0.5,), epochs=2, scale=8)
        assert res["points"] and res["frontier"]
        labels = {p.label for p in res["points"]}
        assert any(l.startswith("TB-STC") for l in labels)
