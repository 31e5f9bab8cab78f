"""Tests for the cycle-level simulation engine."""

import numpy as np
import pytest

from repro.core.patterns import Direction, PatternFamily
from repro.hw.config import tb_stc, tensor_core
from repro.sim.engine import PIPELINE_FILL_CYCLES, block_segments, simulate
from repro.sim.options import SimOptions
from repro.sim.baselines import arch_by_name, simulate_layer_sweep
from repro.sim.metrics import aggregate, normalized_edp, speedup
from repro.workloads.generator import build_workload
from repro.workloads.layers import LayerSpec

LAYER = LayerSpec("test", 128, 128, 64)


def _wl(family=PatternFamily.TBS, sparsity=0.75, seed=0, layer=LAYER):
    return build_workload(layer, family, sparsity, seed=seed)


class TestBlockSegments:
    def test_dense_config_sees_full_blocks(self):
        counts, dirs = block_segments(_wl(), tensor_core())
        assert (counts == 8).all()

    def test_tbs_counts_match_mask(self):
        wl = _wl()
        counts, dirs = block_segments(wl, tb_stc())
        assert counts.sum() == wl.nnz

    def test_no_codec_pads_col_blocks(self):
        wl = _wl()
        with_codec, dirs = block_segments(wl, tb_stc())
        without, _ = block_segments(wl, tb_stc(has_codec=False))
        col = dirs == Direction.COL.value
        assert col.any()
        assert without[col].sum() >= with_codec[col].sum()
        # Row blocks are untouched.
        np.testing.assert_array_equal(without[~col], with_codec[~col])


class TestSimulate:
    def test_result_fields_sane(self):
        result = simulate(tb_stc(), _wl())
        assert result.cycles > 0
        assert result.cycles >= max(result.compute_cycles, result.memory_cycles)
        assert result.macs > 0
        assert result.energy.total_pj > 0
        assert 0 < result.compute_utilization <= 1.0

    def test_dense_tc_cycle_count(self):
        """TC compute = dense MACs / peak (plus fill)."""
        wl = _wl(PatternFamily.US, 0.0)
        result = simulate(tensor_core(), wl)
        expected = wl.dense_macs / tensor_core().peak_macs_per_cycle
        assert result.compute_cycles == pytest.approx(expected, rel=0.1)

    def test_sparsity_reduces_cycles(self):
        dense = simulate(tb_stc(), _wl(PatternFamily.TBS, 0.5, seed=1))
        sparse = simulate(tb_stc(), _wl(PatternFamily.TBS, 0.875, seed=1))
        assert sparse.cycles < dense.cycles

    def test_codec_only_counts_col_blocks(self):
        wl = _wl()
        result = simulate(tb_stc(), wl)
        counts, dirs = block_segments(wl, tb_stc())
        col_nnz = counts[dirs == Direction.COL.value].sum()
        assert result.breakdown["codec_visible"] >= 0
        assert result.energy.components.get("codec", 0) == pytest.approx(
            col_nnz * 0.137, rel=0.01
        )

    def test_bandwidth_scaling(self):
        slow = simulate(tb_stc(dram_bandwidth_gbs=16.0), _wl())
        fast = simulate(tb_stc(dram_bandwidth_gbs=512.0), _wl())
        assert fast.cycles < slow.cycles

    def test_weight_bits_speeds_memory(self):
        fp16 = simulate(tb_stc(), _wl())
        int8 = simulate(tb_stc(), _wl(), options=SimOptions(weight_bits=8))
        assert int8.memory_cycles < fp16.memory_cycles
        assert int8.cycles <= fp16.cycles

    def test_weight_bits_validation(self):
        with pytest.raises(ValueError):
            simulate(tb_stc(), _wl(), options=SimOptions(weight_bits=1))

    def test_row_overhead_slows(self):
        base = simulate(tb_stc(), _wl())
        loaded = simulate(tb_stc(row_overhead_cycles=1.0), _wl())
        assert loaded.compute_cycles > base.compute_cycles

    def test_pipeline_fill_included(self):
        result = simulate(tb_stc(), _wl())
        assert result.breakdown["pipeline_fill"] == PIPELINE_FILL_CYCLES


class TestOrderingClaims:
    """The qualitative Fig. 12 ordering on a weight-heavy layer."""

    @pytest.fixture(scope="class")
    def sweep(self):
        layer = LayerSpec("ffn", 512, 256, 96)
        return simulate_layer_sweep(layer, sparsity=0.75, scale=1)

    def test_tb_stc_fastest_structured(self, sweep):
        tb = sweep["TB-STC"]
        for name in ("TC", "STC", "VEGETA", "HighLight"):
            assert speedup(tb, sweep[name]) > 1.0

    def test_tb_stc_best_edp(self, sweep):
        tb = sweep["TB-STC"]
        for name, res in sweep.items():
            if name != "TB-STC":
                assert normalized_edp(tb, res) < 1.0

    def test_rm_stc_close_in_speed_worse_in_edp(self, sweep):
        """Paper: similar speedup (1.06x) but 1.75x worse EDP."""
        tb, rm = sweep["TB-STC"], sweep["RM-STC"]
        assert speedup(tb, rm) < 1.6
        assert rm.edp / tb.edp > 1.15

    def test_stc_capped_at_2x_compute(self, sweep):
        assert sweep["STC"].compute_cycles >= sweep["TC"].compute_cycles * 0.45


class TestAggregate:
    def test_aggregate_sums(self):
        r1 = simulate(tb_stc(), _wl(seed=1))
        r2 = simulate(tb_stc(), _wl(seed=2))
        total = aggregate([r1, r2])
        assert total.cycles == r1.cycles + r2.cycles
        assert total.energy.total_pj == pytest.approx(r1.energy.total_pj + r2.energy.total_pj)

    def test_aggregate_with_repeats(self):
        r1 = simulate(tb_stc(), _wl(seed=1))
        total = aggregate([r1], repeats=[3])
        assert total.cycles == 3 * r1.cycles

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_aggregate_rejects_misaligned(self):
        r1 = simulate(tb_stc(), _wl(seed=1))
        with pytest.raises(ValueError):
            aggregate([r1], repeats=[1, 2])

    def test_scaled_rejects_zero(self):
        r1 = simulate(tb_stc(), _wl(seed=1))
        with pytest.raises(ValueError):
            r1.scaled(0)


class TestArchLookup:
    def test_known_names(self):
        for name in ("TC", "STC", "VEGETA", "HighLight", "RM-STC", "SGCN", "TB-STC", "DVPE+FAN"):
            assert arch_by_name(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            arch_by_name("TPU")

    def test_overrides_forwarded(self):
        assert arch_by_name("TB-STC", dram_bandwidth_gbs=128.0).dram_bandwidth_gbs == 128.0

    def test_sgcn_row_overhead_applied(self):
        wl = _wl(PatternFamily.US, 0.5)
        plain = simulate(arch_by_name("SGCN", row_overhead_cycles=0.0), wl)
        loaded = simulate(arch_by_name("SGCN"), wl)
        assert loaded.compute_cycles > plain.compute_cycles
