"""Tests for the energy/power and area models against Table III."""

import pytest

from repro.hw.area import a100_overhead_percent, area_breakdown
from repro.hw.config import rm_stc, tb_stc, tensor_core
from repro.hw.energy import EnergyModel, EnergyReport


class TestTableIIIPower:
    """Table III: DVPE 197.71 mW (98.57%), codec 2.19 mW, MBD 0.69 mW."""

    def test_component_power(self):
        power = EnergyModel(tb_stc()).peak_dynamic_power_mw()
        assert power["DVPE Array"] == pytest.approx(197.71, rel=0.01)
        assert power["Codec Unit"] == pytest.approx(2.19, rel=0.01)
        assert power["MBD Unit"] == pytest.approx(0.69, rel=0.01)
        assert power["Total"] == pytest.approx(200.59, rel=0.01)

    def test_dvpe_dominates(self):
        power = EnergyModel(tb_stc()).peak_dynamic_power_mw()
        assert power["DVPE Array"] / power["Total"] > 0.97

    def test_tc_has_no_codec_power(self):
        power = EnergyModel(tensor_core()).peak_dynamic_power_mw()
        assert power["Codec Unit"] == 0.0


class TestTableIIIArea:
    """Table III: DVPE 1.43 mm^2 (97.28%), codec 0.03, MBD 0.01, total 1.47."""

    def test_component_area(self):
        area = area_breakdown(tb_stc())
        assert area["DVPE Array"] == pytest.approx(1.43, rel=0.01)
        assert area["Codec Unit"] == pytest.approx(0.03, rel=0.01)
        assert area["MBD Unit"] == pytest.approx(0.01, rel=0.01)
        assert area["Total"] == pytest.approx(1.47, rel=0.01)

    def test_a100_overhead(self):
        """Sec. VII-C4: 0.12 x 108 = 12.96 mm^2 -> 1.57% of 826 mm^2."""
        assert a100_overhead_percent(tb_stc()) == pytest.approx(1.57, rel=0.01)

    def test_tc_smaller_than_tb_stc(self):
        assert area_breakdown(tensor_core())["Total"] < area_breakdown(tb_stc())["Total"]


class TestEnergyReport:
    def test_components_accumulate(self):
        report = EnergyReport(cycles=100, frequency_ghz=1.0)
        report.add("compute", 50.0)
        report.add("compute", 25.0)
        assert report.components["compute"] == 75.0
        assert report.total_pj == 75.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyReport().add("x", -1.0)


class TestEnergyModel:
    def test_workload_report_components(self):
        model = EnergyModel(tb_stc())
        report = model.report(
            cycles=1000, macs=10_000, dram_bytes=4096, sram_bytes=8192,
            codec_elements=500, mbd_elements=500,
        )
        assert set(report.components) == {"compute", "dram", "sram", "codec", "mbd", "static"}
        assert report.total_pj > 0

    def test_dram_dominates_memory_bound(self):
        model = EnergyModel(tb_stc())
        report = model.report(cycles=100, macs=10, dram_bytes=1e6, sram_bytes=0)
        assert report.components["dram"] > report.components["compute"]

    def test_rm_stc_pays_datapath_premium(self):
        macs = 1_000_000
        ours = EnergyModel(tb_stc()).report(1000, macs, 0, 0)
        theirs = EnergyModel(rm_stc()).report(1000, macs, 0, 0)
        ratio = theirs.components["compute"] / ours.components["compute"]
        assert ratio == pytest.approx(2.0, rel=0.01)  # Fig. 6(d) gather/union

    def test_rejects_negative_activity(self):
        with pytest.raises(ValueError):
            EnergyModel(tb_stc()).report(-1, 0, 0, 0)

    def test_codec_energy_gated_by_config(self):
        report = EnergyModel(tensor_core()).report(100, 100, 0, 0, codec_elements=100)
        assert "codec" not in report.components
