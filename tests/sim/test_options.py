"""Tests for the SimOptions value object and simulate()'s options contract."""

import pickle

import pytest

from repro.core.patterns import PatternFamily
from repro.hw.config import tb_stc
from repro.sim.engine import simulate
from repro.sim.metrics import SIM_RESULT_SCHEMA, SimResult
from repro.sim.options import SimOptions
from repro.workloads.generator import build_workload
from repro.workloads.layers import LayerSpec

LAYER = LayerSpec("test", 64, 64, 64)


def _wl(sparsity=0.75, seed=0):
    return build_workload(LAYER, PatternFamily.TBS, sparsity, seed=seed)


class TestSimOptions:
    def test_defaults(self):
        opts = SimOptions()
        assert opts.weight_bits == 16
        assert opts.fault is None
        assert opts.fault_seed == 0
        assert opts.orientation == "forward"

    def test_frozen(self):
        with pytest.raises(Exception):
            SimOptions().weight_bits = 8  # type: ignore[misc]

    def test_hashable_and_picklable(self):
        opts = SimOptions(weight_bits=8)
        assert hash(opts) == hash(SimOptions(weight_bits=8))
        assert pickle.loads(pickle.dumps(opts)) == opts

    @pytest.mark.parametrize("bits", [0, 1, 17, 32])
    def test_rejects_bad_weight_bits(self, bits):
        with pytest.raises(ValueError, match="weight_bits"):
            SimOptions(weight_bits=bits)

    def test_rejects_unknown_fault_target(self):
        with pytest.raises(ValueError, match="fault"):
            SimOptions(fault="everything")

    def test_rejects_bad_orientation(self):
        with pytest.raises(ValueError, match="orientation"):
            SimOptions(orientation="sideways")


class TestSimulateOptions:
    def test_loose_option_kwargs_raise(self):
        """Every knob travels in SimOptions; a loose keyword is an error."""
        with pytest.raises(TypeError, match="weight_bits"):
            simulate(tb_stc(), _wl(), weight_bits=8)

    def test_rejects_mixing_options_and_legacy(self):
        with pytest.raises(TypeError, match="weight_bits"):
            simulate(tb_stc(), _wl(), options=SimOptions(), weight_bits=8)

    def test_rejects_unknown_kwarg(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            simulate(tb_stc(), _wl(), turbo=True)


class TestSimulateOrientation:
    def test_explicit_forward_matches_default(self):
        wl = _wl()
        fwd = simulate(tb_stc(), wl, options=SimOptions(orientation="forward"))
        assert fwd.to_dict() == simulate(tb_stc(), wl).to_dict()

    def test_transposed_pass_costs_more_for_sdc_storage(self):
        """SDC's row-group layout re-fetches whole groups per block
        column on the backward pass, so its DRAM traffic must grow."""
        from repro.hw.config import all_baselines

        config = next(c for c in all_baselines() if c.storage_format == "sdc")
        wl = _wl()
        fwd = simulate(config, wl)
        bwd = simulate(config, wl, options=SimOptions(orientation="transposed"))
        assert bwd.dram_bytes > fwd.dram_bytes


class TestSimResultSerialization:
    def test_round_trip(self):
        result = simulate(tb_stc(), _wl())
        payload = result.to_dict()
        assert payload["schema_version"] == SIM_RESULT_SCHEMA
        back = SimResult.from_dict(payload)
        assert back.to_dict() == payload
        assert back.cycles == result.cycles
        assert back.edp == pytest.approx(result.edp)

    def test_round_trip_survives_json(self):
        import json

        result = simulate(tb_stc(), _wl())
        back = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.to_dict() == result.to_dict()

    def test_schema_mismatch_raises(self):
        payload = simulate(tb_stc(), _wl()).to_dict()
        payload["schema_version"] = SIM_RESULT_SCHEMA + 1
        with pytest.raises(ValueError, match="schema"):
            SimResult.from_dict(payload)

    def test_missing_schema_raises(self):
        payload = simulate(tb_stc(), _wl()).to_dict()
        del payload["schema_version"]
        with pytest.raises(ValueError, match="schema"):
            SimResult.from_dict(payload)
