"""Parallelism must not change numbers: workers N == workers 1, byte for byte.

This is the contract the whole sweep engine exists to uphold -- cells
are pure functions of their kwargs and aggregation folds in spec order,
so the worker count can only affect wall-clock, never output.  These
tests pin that down on a real experiment driver (Table 1) and on the
fault-injection campaign, comparing serialized JSON for byte equality.
"""

import json

from repro.analysis.experiments import run_table1
from repro.faults.campaign import CampaignSpec, render_campaign, run_campaign
from repro.sweep import SweepCell, SweepSpec, run_sweep

from . import _cells


def _canon(obj):
    return json.dumps(obj, sort_keys=True, default=repr)


class TestTable1Determinism:
    GRID = dict(tasks=(("mlp", 0.75),), seeds=(0, 1), epochs=1)

    def test_parallel_table1_is_byte_identical(self):
        serial = run_table1(workers=1, **self.GRID)
        parallel = run_table1(workers=4, **self.GRID)
        assert _canon(parallel) == _canon(serial)

    def test_env_selected_workers_are_byte_identical(self, monkeypatch):
        serial = run_table1(workers=1, **self.GRID)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        via_env = run_table1(**self.GRID)
        assert _canon(via_env) == _canon(serial)


class TestCampaignDeterminism:
    SPEC = CampaignSpec(
        formats=("sdc", "ddc"),
        models=("value_flip", "meta_flip"),
        trials=5,
        seed=0,
    )

    def test_parallel_campaign_is_byte_identical(self):
        serial = run_campaign(self.SPEC, workers=1)
        parallel = run_campaign(self.SPEC, workers=2)
        assert render_campaign(parallel) == render_campaign(serial)
        serial_cells = [
            (c.format_name, c.model, c.counts, c.sdc_rate, c.coverage)
            for c in serial.cells
        ]
        parallel_cells = [
            (c.format_name, c.model, c.counts, c.sdc_rate, c.coverage)
            for c in parallel.cells
        ]
        assert _canon(parallel_cells) == _canon(serial_cells)

    def test_campaign_cells_stay_in_spec_order(self):
        result = run_campaign(self.SPEC, workers=2)
        assert [(c.format_name, c.model) for c in result.cells] == [
            (fmt, model) for fmt in self.SPEC.formats for model in self.SPEC.models
        ]


class TestMidSweepFailure:
    def test_worker_raising_mid_cell_yields_structured_error(self):
        """A cell that blows up in a worker must not take the sweep down."""
        spec = SweepSpec(
            "with-failure",
            tuple(
                SweepCell(key=f"x={i}", fn=_cells.boom_on, kwargs={"x": i, "bad": 3})
                for i in range(6)
            ),
        )
        result = run_sweep(spec, workers=2)
        assert len(result.cells) == 6  # completed sweep
        assert not result.ok
        (failure,) = result.failures
        assert failure.key == "x=3"
        assert failure.status == "failed"
        assert failure.error == "RuntimeError: cell 3 exploded"
        assert "RuntimeError" in failure.traceback
        assert [c.value for c in result.cells if c.ok] == [0, 10, 20, 40, 50]
