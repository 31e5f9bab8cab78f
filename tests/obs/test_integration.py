"""End-to-end observability: simulate() and the sweep engine.

Pins the two integration contracts of :mod:`repro.obs`:

* with obs **off** (the default) nothing changes -- ``SimResult
  .metrics`` stays None and results are identical to an uninstrumented
  run;
* with obs **on**, per-call / per-cell metrics are deterministic: the
  same work yields byte-identical payloads whichever process (or how
  many workers) ran it.
"""

import json

import pytest

from repro import obs
from repro.core.patterns import PatternFamily
from repro.hw.config import tb_stc
from repro.sim.engine import simulate
from repro.sweep import SweepCell, SweepSpec, run_sweep
from repro.workloads.generator import build_workload
from repro.workloads.layers import LayerSpec

from ..sweep import _cells


@pytest.fixture(autouse=True)
def _clean_obs():
    from repro.sim.engine import clear_cost_memo

    clear_cost_memo()  # memo warmth is process-history-dependent
    obs.reset()
    obs.disable()
    try:
        yield
    finally:
        obs.reset()
        obs.disable()


def _workload(seed=0):
    layer = LayerSpec("obs-test", 64, 64, 32)
    return build_workload(layer, PatternFamily.TBS, 0.75, seed=seed)


class TestSimulateMetrics:
    def test_metrics_none_when_disabled(self):
        result = simulate(tb_stc(), _workload())
        assert result.metrics is None
        assert result.to_dict()["metrics"] is None

    def test_disabled_results_match_enabled(self):
        """Turning obs on must not change the simulation numbers."""
        wl = _workload()
        off = simulate(tb_stc(), wl).to_dict()
        with obs.enabled_scope():
            on = simulate(tb_stc(), wl).to_dict()
        # Both fields describe the host run, not the modeled hardware.
        for key in ("metrics", "perf_breakdown"):
            assert on.pop(key) is not None
            assert off.pop(key) is None
        assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)

    def test_metrics_payload_shape(self):
        with obs.enabled_scope():
            result = simulate(tb_stc(), _workload())
        metrics = result.metrics
        assert metrics["schema_version"] == obs.METRICS_SCHEMA
        assert "timers" not in metrics  # wall time never crosses into results
        counters = metrics["counters"]
        assert counters["sim.simulate_calls"] == 1
        assert counters["sim.blocks"] >= 1
        assert "hw.dvpe.blocks_costed" in counters

    def test_metrics_survive_result_round_trip(self):
        from repro.sim.metrics import SimResult

        with obs.enabled_scope():
            result = simulate(tb_stc(), _workload())
        back = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.metrics == result.metrics

    def test_nested_calls_accumulate_in_ambient_registry(self):
        with obs.enabled_scope():
            simulate(tb_stc(), _workload(seed=0))
            simulate(tb_stc(), _workload(seed=1))
            ambient = obs.metrics_dict(deterministic_only=True)
        assert ambient["counters"]["sim.simulate_calls"] == 2


class TestPerfTimerAdapter:
    """repro.perf.timers records into the obs sinks under the obs switch."""

    def test_stage_emits_trace_span_when_obs_on(self):
        from repro.perf import timers

        with obs.enabled_scope():
            with timers.stage("adapter.test"):
                pass
            phases = [(e["name"], e["ph"]) for e in obs.events()]
        assert ("adapter.test", "B") in phases and ("adapter.test", "E") in phases
        # the one switch also records the stage's wall time
        assert obs.metrics_dict()["timers"]["adapter.test"]["calls"] == 1

    def test_timing_lands_in_registry_timers_section(self):
        from repro.perf import timers

        with obs.enabled_scope():
            with timers.stage("adapter.timed"):
                pass
        payload = obs.metrics_dict()
        assert payload["timers"]["adapter.timed"]["calls"] == 1
        # ... but never in the deterministic export
        assert "timers" not in obs.metrics_dict(deterministic_only=True)


class TestSweepMetrics:
    SPEC = SweepSpec(
        "obs-sweep",
        tuple(
            SweepCell(key=f"sq{x}", fn=_cells.square, kwargs={"x": x}) for x in range(4)
        ),
    )

    def test_metrics_none_when_disabled(self):
        result = run_sweep(self.SPEC, workers=1)
        assert all(cell.metrics is None for cell in result.cells)

    def test_cells_carry_deterministic_payloads(self):
        with obs.enabled_scope():
            result = run_sweep(self.SPEC, workers=1)
        for cell in result.cells:
            assert cell.metrics["schema_version"] == obs.METRICS_SCHEMA
            assert "timers" not in cell.metrics

    def test_workers_do_not_change_metrics(self):
        """The headline contract: --workers N metrics == serial, byte for byte."""
        obs.reset()
        with obs.enabled_scope():
            run_sweep(self.SPEC, workers=1)
            serial = obs.metrics_dict(deterministic_only=True)
        obs.reset()
        with obs.enabled_scope():
            run_sweep(self.SPEC, workers=2)
            parallel = obs.metrics_dict(deterministic_only=True)
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    def test_sweep_counters_and_span_events(self):
        obs.reset()
        with obs.enabled_scope():
            run_sweep(self.SPEC, workers=1)
            merged = obs.metrics_dict(deterministic_only=True)
            names = [e["name"] for e in obs.events()]
        assert merged["counters"]["sweep.cells_ok"] == 4
        assert sum(1 for n in names if n.startswith("sweep.cell.")) >= 4

    def test_failed_cell_keeps_metrics_and_closes_span(self):
        spec = SweepSpec(
            "obs-boom", (SweepCell(key="boom", fn=_cells.boom, kwargs={"x": 1}),)
        )
        with obs.enabled_scope():
            result = run_sweep(spec, workers=1)
            phases = [(e["name"], e["ph"]) for e in obs.events()]
        (cell,) = result.cells
        assert cell.status == "failed"
        assert cell.metrics is not None  # forensics survive the failure
        assert ("sweep.cell.boom", "B") in phases and ("sweep.cell.boom", "E") in phases
