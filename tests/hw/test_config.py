"""Unit tests for the architecture configurations."""

import pytest

from repro.core.patterns import PatternFamily
from repro.hw.config import (
    ArchConfig,
    all_baselines,
    dvpe_fan,
    highlight,
    rm_stc,
    sgcn,
    stc,
    tb_stc,
    tensor_core,
    vegeta,
)


class TestPaperConfiguration:
    def test_tb_stc_fabric(self):
        """Sec. VII-A1: 8 DVPE arrays x (2x8) DVPEs x 8 FP16 multipliers."""
        cfg = tb_stc()
        assert cfg.num_pe_arrays == 8
        assert cfg.pes_per_array == 16
        assert cfg.lanes_per_pe == 8
        assert cfg.num_pes == 128
        assert cfg.peak_macs_per_cycle == 1024

    def test_tb_stc_memory(self):
        cfg = tb_stc()
        assert cfg.dram_bandwidth_gbs == 64.0
        assert cfg.frequency_ghz == 1.0
        assert cfg.dram_bytes_per_cycle == 64.0

    def test_tb_stc_features(self):
        cfg = tb_stc()
        assert cfg.pattern is PatternFamily.TBS
        assert cfg.storage_format == "ddc"
        assert cfg.inter_block_scheduling and cfg.intra_block_mapping
        assert cfg.has_codec and cfg.has_mbd and cfg.alternate_unit


class TestBaselines:
    def test_tc_is_dense(self):
        cfg = tensor_core()
        assert cfg.storage_format == "dense"
        assert not cfg.has_codec and not cfg.inter_block_scheduling

    def test_stc_is_tilewise(self):
        assert stc().pattern is PatternFamily.TS

    def test_vegeta_rowwise(self):
        assert vegeta().pattern is PatternFamily.RS_V

    def test_highlight_hierarchical(self):
        assert highlight().pattern is PatternFamily.RS_H

    def test_rm_stc_unstructured_and_power_hungry(self):
        cfg = rm_stc()
        assert cfg.pattern is PatternFamily.US
        assert cfg.datapath_energy_scale > 1.4  # Fig. 6(d) gather/union cost

    def test_sgcn_high_bandwidth(self):
        assert sgcn().dram_bandwidth_gbs == 256.0

    def test_fan_energy_penalty(self):
        assert dvpe_fan().datapath_energy_scale > tb_stc().datapath_energy_scale

    def test_all_baselines_same_fabric(self):
        """Fair comparison: identical peak compute everywhere."""
        peak = tb_stc().peak_macs_per_cycle
        for cfg in all_baselines():
            assert cfg.peak_macs_per_cycle == peak

    def test_names_unique(self):
        names = [cfg.name for cfg in all_baselines()]
        assert len(names) == len(set(names))

    def test_row_overhead_only_on_csr_style_front_ends(self):
        assert (sgcn().row_overhead_cycles, rm_stc().row_overhead_cycles,
                dvpe_fan().row_overhead_cycles) == (0.15, 0.05, 0.2)
        for cfg in (tensor_core(), stc(), vegeta(), highlight(), tb_stc()):
            assert cfg.row_overhead_cycles == 0.0


class TestValidation:
    def test_rejects_zero_pes(self):
        with pytest.raises(ValueError):
            ArchConfig(name="bad", num_pe_arrays=0)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            ArchConfig(name="bad", dram_bandwidth_gbs=0)

    def test_rejects_negative_row_overhead(self):
        with pytest.raises(ValueError, match="row_overhead_cycles"):
            ArchConfig(name="bad", row_overhead_cycles=-1.0)
