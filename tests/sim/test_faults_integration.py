"""Fault injection and ECC overheads through simulate()."""

from repro.core.patterns import PatternFamily
from repro.faults import CLASSES
from repro.hw.config import rm_stc, tb_stc, tensor_core
from repro.sim.engine import simulate
from repro.sim.options import SimOptions
from repro.workloads.generator import build_workload
from repro.workloads.layers import LayerSpec


def _workload(rows=32, cols=32, k=16, sparsity=0.75, seed=0):
    return build_workload(LayerSpec("t", rows, cols, k), PatternFamily.TBS, sparsity, seed=seed)


class TestFaultClassification:
    def test_no_fault_no_classification(self):
        assert simulate(tb_stc(), _workload()).fault_classification is None

    def test_fault_lands_in_a_class(self):
        for seed in range(5):
            res = simulate(tb_stc(), _workload(), options=SimOptions(fault="metadata", fault_seed=seed))
            assert res.fault_classification in CLASSES

    def test_fault_seed_is_deterministic(self):
        a = simulate(tb_stc(), _workload(), options=SimOptions(fault="values", fault_seed=3))
        b = simulate(tb_stc(), _workload(), options=SimOptions(fault="values", fault_seed=3))
        assert a.fault_classification == b.fault_classification

    def test_timing_reported_for_fault_free_run(self):
        clean = simulate(tb_stc(), _workload())
        faulted = simulate(tb_stc(), _workload(), options=SimOptions(fault="metadata", fault_seed=1))
        assert faulted.cycles == clean.cycles

    def test_inapplicable_target_returns_none(self):
        # Dense storage has no index arrays to flip.
        res = simulate(tensor_core(), _workload(), options=SimOptions(fault="indices"))
        assert res.fault_classification is None

    def test_secded_config_corrects_metadata_flips(self):
        """Architecture-axis acceptance: the +secded variant turns
        single-bit metadata flips into corrections."""
        for seed in range(5):
            res = simulate(
                tb_stc(metadata_ecc="secded"),
                _workload(),
                options=SimOptions(fault="metadata", fault_seed=seed),
            )
            assert res.fault_classification in ("corrected", "benign")


class TestECCOverheads:
    def test_unprotected_config_charges_nothing(self):
        res = simulate(tb_stc(), _workload())
        assert res.breakdown["ecc_bytes"] == 0.0
        assert "ecc" not in res.energy.components

    def test_protection_charges_traffic_and_energy(self):
        base = simulate(tb_stc(), _workload())
        prot = simulate(tb_stc(metadata_ecc="secded"), _workload())
        assert prot.breakdown["ecc_bytes"] > 0
        assert prot.energy.components["ecc"] > 0
        assert prot.dram_bytes >= base.dram_bytes
        assert prot.energy.total_j > base.energy.total_j

    def test_parity_cheaper_than_secded(self):
        parity = simulate(tb_stc(metadata_ecc="parity"), _workload())
        secded = simulate(tb_stc(metadata_ecc="secded"), _workload())
        assert parity.breakdown["ecc_bytes"] < secded.breakdown["ecc_bytes"]

    def test_bitmap_format_also_pays(self):
        # RM-STC's occupancy bitmap is metadata too; SDC is exempt only
        # because its validity flags are folded into the index bytes.
        res = simulate(rm_stc(metadata_ecc="secded"), _workload())
        assert res.breakdown["ecc_bytes"] > 0
