"""Golden-file regression tests for the serialized result schemas.

Pins the exact JSON a consumer sees: the versioned ``SimResult
.to_dict`` payload for one reference workload, the aggregated
sweep JSON for a small Table 1 grid (mlp task, seed 0, one epoch), the
per-cell outcome counts of a seeded fault campaign, and every other
paper experiment through ``run_experiment`` at a smoke size.
Values are rounded to :data:`_PLACES` decimals before comparison, so
the files survive last-bit float drift while still catching any real
change to the numbers, the key set, or the schema version.

A mismatch here means one of two things:

* an **accidental** output change -- a bug; fix the code; or
* an **intentional** schema/metric change -- bump the relevant
  ``*_SCHEMA`` constant, then regenerate the golden files with::

      PYTHONPATH=src python -m tests.golden.test_golden

  and review the diff like any other contract change.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.core.patterns import PatternFamily
from repro.hw.config import tb_stc
from repro.sim.engine import simulate
from repro.sim.metrics import SIM_RESULT_SCHEMA
from repro.workloads.generator import build_workload
from repro.workloads.layers import LayerSpec

_GOLDEN_DIR = Path(__file__).parent
_SIMRESULT_GOLDEN = _GOLDEN_DIR / "simresult_tbstc_64x64.json"
_TABLE1_GOLDEN = _GOLDEN_DIR / "table1_mlp_seed0.json"
_FIG7BOTH_GOLDEN = _GOLDEN_DIR / "fig7both_64.json"
_SCENARIOS_GOLDEN = _GOLDEN_DIR / "scenarios_64.json"
_FAULTS_GOLDEN = _GOLDEN_DIR / "faults_seed0.json"
_REPORT_SMOKE_GOLDEN = _GOLDEN_DIR / "report_smoke.json"
#: table1 is pinned by its own golden above and by the benchmark digests.
_SMOKE_EXPERIMENTS = tuple(name for name in EXPERIMENTS if name != "table1")
_PLACES = 6


def _rounded(obj):
    """Round every float in a JSON-shaped object to ``_PLACES`` decimals
    (dataclass values such as ``ParetoPoint`` are written as their fields)."""
    if dataclasses.is_dataclass(obj):
        return _rounded(dataclasses.asdict(obj))
    if isinstance(obj, float):
        return round(obj, _PLACES)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _canon(obj) -> str:
    return json.dumps(_rounded(obj), sort_keys=True, indent=2) + "\n"


def _simresult_payload():
    layer = LayerSpec("golden", 64, 64, 64)
    workload = build_workload(layer, PatternFamily.TBS, 0.75, seed=0)
    return simulate(tb_stc(), workload).to_dict()


def _table1_payload():
    from repro.analysis.experiments import run_table1

    return run_table1(tasks=(("mlp", 0.75),), seeds=(0,), epochs=1, workers=1)


def _fig7both_payload():
    from repro.analysis.experiments import run_fig7_both_passes

    return run_fig7_both_passes(sparsities=(0.5, 0.75, 0.875), seed=0, size=64, workers=1)


def _scenarios_payload():
    from repro.analysis.experiments import run_scenarios

    return run_scenarios(scale=64, workers=1)


def _faults_payload():
    """Class counts of a seed-0 campaign (10 trials, default ECC):
    every format at 16x16, plus the block formats at a ragged 20x28."""
    from repro.faults import CampaignSpec, run_campaign
    from repro.formats import available_formats

    parts = {
        "16x16": CampaignSpec(formats=available_formats(), trials=10, rows=16, cols=16),
        "20x28": CampaignSpec(formats=("ddc", "bcsrcoo"), trials=10, rows=20, cols=28),
    }
    return {
        size: {
            f"{cell.format_name} {cell.model}": dict(cell.counts, skipped=cell.skipped)
            for cell in run_campaign(spec, workers=1).cells
        }
        for size, spec in parts.items()
    }


def _report_smoke_payload(name: str):
    return run_experiment(name, seeds=(0,), epochs=1, scale=16, workers=1)


class TestSimResultGolden:
    def test_matches_golden_file(self):
        expected = json.loads(_SIMRESULT_GOLDEN.read_text())
        actual = json.loads(_canon(_simresult_payload()))
        assert actual["schema_version"] == SIM_RESULT_SCHEMA
        assert sorted(actual) == sorted(expected), "SimResult.to_dict key set changed"
        assert actual == expected

    def test_golden_schema_version_tracks_code(self):
        """The checked-in file must be regenerated when the schema bumps."""
        expected = json.loads(_SIMRESULT_GOLDEN.read_text())
        assert expected["schema_version"] == SIM_RESULT_SCHEMA


class TestTable1Golden:
    def test_matches_golden_file(self):
        expected = json.loads(_TABLE1_GOLDEN.read_text())
        actual = json.loads(_canon(_table1_payload()))
        assert sorted(actual) == sorted(expected), "table1 task set changed"
        for task in expected:
            assert sorted(actual[task]) == sorted(expected[task]), (
                f"table1[{task!r}] family set changed"
            )
        assert actual == expected


class TestFig7BothGolden:
    """Pins the both-passes format-comparison table (Fig. 7 analogue
    with a backward-pass column)."""

    def test_matches_golden_file(self):
        expected = json.loads(_FIG7BOTH_GOLDEN.read_text())
        actual = json.loads(_canon(_fig7both_payload()))
        assert sorted(actual) == sorted(expected), "fig7both row set changed"
        assert actual == expected

    def test_bcsrcoo_beats_csr_on_the_backward_pass(self):
        """The committed table itself must witness the acceptance
        criterion: lower transposed-pass traffic than CSR at the
        paper's 75% sparsity."""
        table = json.loads(_FIG7BOTH_GOLDEN.read_text())
        bcsrcoo = table["sparsity=75% bcsrcoo"]
        csr = table["sparsity=75% csr"]
        assert bcsrcoo["backward_traced_bytes"] < csr["backward_traced_bytes"]

    def test_single_encode_formats_trace_equal_bytes_both_ways(self):
        table = json.loads(_FIG7BOTH_GOLDEN.read_text())
        for key, row in table.items():
            if key.endswith(" bcsrcoo"):
                assert row["backward_traced_bytes"] == row["forward_traced_bytes"], key


class TestScenariosGolden:
    """Pins the scale-64 win/loss table of ``run_scenarios``: every
    workload family x pattern regime, simulated cycles plus the full
    format x orientation traffic grid."""

    def test_matches_golden_file(self):
        expected = json.loads(_SCENARIOS_GOLDEN.read_text())
        actual = json.loads(_canon(_scenarios_payload()))
        assert sorted(actual) == sorted(expected), "scenario family set changed"
        for family in expected:
            assert sorted(actual[family]["formats"]) == sorted(expected[family]["formats"]), (
                f"scenarios[{family!r}] format set changed"
            )
        assert actual == expected

    def test_covers_the_full_grid(self):
        """>= 3 families x >= 5 formats x both orientations, every
        pattern regime scored per cell (the acceptance floor)."""
        from repro.formats import ORIENTATIONS, available_formats
        from repro.workloads.scenarios import SCENARIO_FAMILIES, SCENARIO_PATTERNS

        table = json.loads(_SCENARIOS_GOLDEN.read_text())
        assert sorted(table) == sorted(SCENARIO_FAMILIES)
        for family, entry in table.items():
            assert sorted(entry["patterns"]) == sorted(SCENARIO_PATTERNS), family
            assert sorted(entry["formats"]) == sorted(available_formats()), family
            for fmt, rows in entry["formats"].items():
                assert sorted(rows) == sorted(ORIENTATIONS), (family, fmt)
                for orientation, row in rows.items():
                    assert set(SCENARIO_PATTERNS) <= set(row), (family, fmt, orientation)
                    assert row["winner"] in set(SCENARIO_PATTERNS) | {"tie"}

    def test_inference24_is_the_baselines_home_game(self):
        """One-shot 2:4 pruning is STC's native regime: the committed
        table must show the 2:4 pattern winning its cycle race there
        while TBS takes the stencil family."""
        table = json.loads(_SCENARIOS_GOLDEN.read_text())
        assert table["inference24"]["cycle_winner"] == "2:4"
        assert table["stencil"]["cycle_winner"] == "TBS"

    def test_tbs_never_fetches_more_than_dense_on_structured_families(self):
        """Stencil structure and MoE block-diagonal zeros are exactly
        what TBS's per-block N=0 skipping absorbs: across every format
        and orientation its traffic must not exceed the dense regime's."""
        table = json.loads(_SCENARIOS_GOLDEN.read_text())
        for family in ("stencil", "moe"):
            for fmt, rows in table[family]["formats"].items():
                for orientation, row in rows.items():
                    assert row["TBS"] <= row["dense"], (family, fmt, orientation)

    def test_dense_speedup_is_unity(self):
        table = json.loads(_SCENARIOS_GOLDEN.read_text())
        for family, entry in table.items():
            assert entry["speedup_vs_dense"]["dense"] == 1.0, family


class TestFaultsGolden:
    """Pins the seeded fault campaign's outcome table, so a refactor of
    a format's arrays or of the injectors cannot move a fault outcome
    unseen."""

    def test_matches_golden_file(self):
        expected = json.loads(_FAULTS_GOLDEN.read_text())
        actual = json.loads(_canon(_faults_payload()))
        assert sorted(actual) == sorted(expected), "faults size set changed"
        for size in expected:
            assert sorted(actual[size]) == sorted(expected[size]), (
                f"faults[{size!r}] cell set changed"
            )
        assert actual == expected


class TestReportSmokeGolden:
    """Pins every paper experiment at a smoke size (one seed, one epoch,
    scale 16), so a refactor of any driver cannot move a figure unseen."""

    def test_covers_every_experiment_but_table1(self):
        expected = json.loads(_REPORT_SMOKE_GOLDEN.read_text())
        assert sorted(expected) == sorted(_SMOKE_EXPERIMENTS)

    @pytest.mark.parametrize("name", _SMOKE_EXPERIMENTS)
    def test_matches_golden_file(self, name):
        expected = json.loads(_REPORT_SMOKE_GOLDEN.read_text())[name]
        assert json.loads(_canon(_report_smoke_payload(name))) == expected


def _regenerate() -> None:  # pragma: no cover - maintenance entry point
    _SIMRESULT_GOLDEN.write_text(_canon(_simresult_payload()))
    print(f"wrote {_SIMRESULT_GOLDEN}")
    _TABLE1_GOLDEN.write_text(_canon(_table1_payload()))
    print(f"wrote {_TABLE1_GOLDEN}")
    _FIG7BOTH_GOLDEN.write_text(_canon(_fig7both_payload()))
    print(f"wrote {_FIG7BOTH_GOLDEN}")
    _SCENARIOS_GOLDEN.write_text(_canon(_scenarios_payload()))
    print(f"wrote {_SCENARIOS_GOLDEN}")
    _FAULTS_GOLDEN.write_text(_canon(_faults_payload()))
    print(f"wrote {_FAULTS_GOLDEN}")
    _REPORT_SMOKE_GOLDEN.write_text(
        _canon({name: _report_smoke_payload(name) for name in _SMOKE_EXPERIMENTS})
    )
    print(f"wrote {_REPORT_SMOKE_GOLDEN}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
