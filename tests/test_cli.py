"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import _EXPERIMENTS, build_parser, main


class TestParser:
    def test_report_defaults(self):
        args = build_parser().parse_args(["report", "table3"])
        assert args.experiment == "table3"
        assert args.seeds == 1
        assert args.checkpoint_dir is None and not args.resume

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "table9"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_six_commands(self):
        """`report` is the one command that runs a paper experiment."""
        assert "{report,prune,simulate,faults,perf,serve}" in build_parser().format_help()

    def test_experiment_list_matches_analysis(self):
        """The parser's local copy must track the analysis registry."""
        from repro.analysis import EXPERIMENTS

        assert _EXPERIMENTS == tuple(EXPERIMENTS)

    def test_format_names_match_registry(self):
        """The parser's local copy must track the format registry."""
        from repro.cli import _FORMAT_NAMES
        from repro.formats import available_formats

        assert _FORMAT_NAMES == available_formats()

    def test_orientations_match_formats(self):
        from repro.cli import _ORIENTATIONS
        from repro.formats import ORIENTATIONS

        assert _ORIENTATIONS == ORIENTATIONS

    def test_scenario_families_match_workloads(self):
        """The parser's local copy must track the scenario registry."""
        from repro.cli import _SCENARIO_FAMILIES
        from repro.workloads.scenarios import SCENARIO_FAMILIES

        assert _SCENARIO_FAMILIES == SCENARIO_FAMILIES


class TestReport:
    def test_table3(self, capsys):
        assert main(["report", "table3"]) == 0
        out = capsys.readouterr().out
        assert "DVPE Array" in out and "1.47" in out

    def test_fig4(self, capsys):
        assert main(["report", "fig4"]) == 0
        assert "similarity_vs_US" in capsys.readouterr().out

    def test_fig6(self, capsys):
        assert main(["report", "fig6"]) == 0
        assert "ratio" in capsys.readouterr().out

    def test_fig17(self, capsys):
        assert main(["report", "fig17"]) == 0
        assert "col" in capsys.readouterr().out

    def test_wide(self, capsys):
        assert main(["report", "wide", "--scale", "16"]) == 0
        out = capsys.readouterr().out
        assert "tsenor_vs_exact" in out and "wide64" in out

    def test_rejects_bad_seed_count(self, capsys):
        assert main(["report", "table3", "--seeds", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seeds" in err

    def test_rejects_negative_retries(self, capsys):
        assert main(["report", "table3", "--retries", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_cache_and_resume(self, tmp_path, capsys):
        assert main(["report", "table3", "--checkpoint-dir", str(tmp_path)]) == 0
        first = capsys.readouterr().out
        assert "(cached)" not in first
        assert list(tmp_path.glob("table3-*.pkl"))

        assert main([
            "report", "table3", "--checkpoint-dir", str(tmp_path), "--resume",
        ]) == 0
        second = capsys.readouterr().out
        assert "--- table3 (cached) ---" in second
        assert "DVPE Array" in second  # cached cells still render

    def test_failed_cell_reports_one_line(self, capsys, monkeypatch):
        import repro.analysis.experiments as experiments

        def boom(**kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(experiments, "run_experiment", boom)
        assert main(["report", "table3", "--retries", "0"]) == 1
        captured = capsys.readouterr()
        assert "error: table3 failed: RuntimeError: injected failure" in captured.err
        assert "Traceback" not in captured.err

    def test_failing_single_shot_experiment_runs_once(self, capsys, monkeypatch):
        """A cell that raises is never retried, under default flags too."""
        import repro.analysis.experiments as experiments

        calls = []

        def boom(cfg):
            calls.append(cfg)
            raise RuntimeError("injected failure")

        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)  # count inline calls
        monkeypatch.setattr(experiments, "area_breakdown", boom)
        assert main(["report", "table3"]) == 1
        assert len(calls) == 1
        err = capsys.readouterr().err
        assert "error: cell table3: failed: RuntimeError: injected failure" in err

    def test_all_runs_past_a_failed_experiment(self, capsys, monkeypatch):
        import repro.analysis.experiments as experiments
        import repro.cli as cli

        def boom(cfg):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(cli, "_EXPERIMENTS", ("table3", "fig6"))
        monkeypatch.setattr(experiments, "area_breakdown", boom)
        assert main(["report", "all"]) == 1
        out = capsys.readouterr().out
        assert "--- fig6 ---" in out and "ratio" in out
        assert out.endswith("[repro] 1 computed, 0 from cache, 1 failed\n")

    def test_checkpoint_caches_each_cell_and_resume_recomputes_only_missing(
        self, tmp_path, capsys
    ):
        cache = tmp_path / "cells"
        assert main(["report", "fig17", "--checkpoint-dir", str(cache)]) == 0
        first = capsys.readouterr().out
        entries = sorted(cache.glob("sparsity=*.pkl"))
        assert len(entries) == 3  # one entry per fig17 cell

        entries[0].unlink()
        metrics = tmp_path / "metrics.json"
        assert main([
            "report", "fig17", "--checkpoint-dir", str(cache), "--resume",
            "--metrics", str(metrics),
        ]) == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["sweep.cells_cached"] == 2
        assert counters["sweep.cells_ok"] == 1
        assert capsys.readouterr().out == first  # same table, not "(cached)"

    def test_strict_checks_flag(self, capsys):
        from repro.runtime.checks import get_check_level

        assert main(["report", "fig4", "--checks", "strict"]) == 0
        assert get_check_level() == "off"  # flag must not leak globally


class TestScenariosCli:
    """The ``report scenarios`` win/loss table and its family filtering."""

    def test_renders_both_tables(self, capsys):
        assert main(["report", "scenarios", "--scale", "64"]) == 0
        out = capsys.readouterr().out
        assert "family/format/orientation" in out
        for family in ("stencil", "moe", "inference24"):
            assert family in out
        assert "winner" in out

    def test_json_round_trips_the_driver_output(self, capsys):
        from repro.analysis.experiments import run_scenarios

        assert main(["report", "scenarios", "--scale", "64", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = json.loads(
            json.dumps(run_scenarios(scale=64, workers=1), sort_keys=True, default=repr)
        )
        assert payload == expected

    def test_families_filtering(self, capsys):
        assert main([
            "report", "scenarios", "--scale", "64", "--families", "inference24", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["inference24"]

    def test_unknown_family_fails_with_one_line(self, capsys):
        assert main([
            "report", "scenarios", "--scale", "64", "--families", "bogus", "--retries", "0",
        ]) == 1
        err = capsys.readouterr().err
        assert "unknown workload family 'bogus'" in err
        assert "Traceback" not in err

    def test_sweep_unknown_family_fails_with_one_line(self, capsys):
        assert main(["report", "scenarios", "--families", "bogus"]) == 1
        captured = capsys.readouterr()
        error_lines = [l for l in captured.err.splitlines() if l.startswith("error:")]
        assert error_lines == [
            "error: unknown workload family 'bogus'; known: stencil, moe, inference24"
        ]
        assert "Traceback" not in captured.err


class TestPrune:
    def test_prunes_and_saves(self, tmp_path, capsys):
        path = tmp_path / "w.npy"
        np.save(path, np.random.default_rng(0).normal(size=(32, 32)))
        assert main(["prune", str(path), "--pattern", "TBS", "--sparsity", "0.75"]) == 0
        mask = np.load(tmp_path / "w.mask.npy")
        assert mask.dtype == bool
        assert abs((1 - mask.mean()) - 0.75) < 0.1

    def test_other_patterns(self, tmp_path):
        path = tmp_path / "w.npy"
        np.save(path, np.random.default_rng(1).normal(size=(16, 16)))
        for pattern in ("US", "TS", "RS_V"):
            assert main(["prune", str(path), "--pattern", pattern]) == 0

    def test_rejects_non_2d(self, tmp_path, capsys):
        path = tmp_path / "w.npy"
        np.save(path, np.ones(8))
        assert main(["prune", str(path)]) == 2

    def test_custom_output_path(self, tmp_path):
        path = tmp_path / "w.npy"
        out = tmp_path / "custom.npy"
        np.save(path, np.random.default_rng(2).normal(size=(16, 16)))
        assert main(["prune", str(path), "--out", str(out)]) == 0
        assert out.exists()

    def test_missing_weights_file(self, tmp_path, capsys):
        assert main(["prune", str(tmp_path / "nope.npy")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot read weights" in err
        assert "Traceback" not in err

    def test_unreadable_weights_file(self, tmp_path, capsys):
        path = tmp_path / "corrupt.npy"
        path.write_text("this is not a numpy file")
        assert main(["prune", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("sparsity", ["1.5", "-0.25", "1.0"])
    def test_invalid_sparsity(self, tmp_path, capsys, sparsity):
        path = tmp_path / "w.npy"
        np.save(path, np.ones((8, 8)))
        assert main(["prune", str(path), "--sparsity", sparsity]) == 2
        assert "sparsity must be in [0, 1)" in capsys.readouterr().err

    def test_invalid_m(self, tmp_path, capsys):
        path = tmp_path / "w.npy"
        np.save(path, np.ones((8, 8)))
        assert main(["prune", str(path), "--m", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unwritable_output(self, tmp_path, capsys):
        path = tmp_path / "w.npy"
        np.save(path, np.ones((8, 8)))
        out = tmp_path / "no" / "such" / "dir" / "mask.npy"
        assert main(["prune", str(path), "--out", str(out)]) == 2
        assert "cannot write mask" in capsys.readouterr().err

    def test_strict_checks_pass_on_valid_mask(self, tmp_path):
        path = tmp_path / "w.npy"
        np.save(path, np.random.default_rng(3).normal(size=(32, 32)))
        assert main(["prune", str(path), "--checks", "strict"]) == 0

    def test_nmt_pattern_with_tsolver(self, tmp_path, capsys):
        from repro.core.patterns import PatternFamily, PatternSpec
        from repro.core.validate import validate_mask

        path = tmp_path / "w.npy"
        np.save(path, np.random.default_rng(4).normal(size=(32, 32)))
        assert main([
            "prune", str(path), "--pattern", "NMT", "--sparsity", "0.75",
            "--tsolver", "tsenor",
        ]) == 0
        assert "solver tsenor" in capsys.readouterr().out
        mask = np.load(tmp_path / "w.mask.npy")
        spec = PatternSpec(PatternFamily.NMT, m=8, sparsity=0.75)
        assert validate_mask(mask, spec).ok

    def test_nmt_default_solver_is_greedy(self, tmp_path, capsys):
        path = tmp_path / "w.npy"
        np.save(path, np.random.default_rng(5).normal(size=(16, 16)))
        assert main(["prune", str(path), "--pattern", "NMT"]) == 0
        assert "solver greedy" in capsys.readouterr().out

    def test_rejects_unknown_tsolver(self, tmp_path):
        path = tmp_path / "w.npy"
        np.save(path, np.ones((8, 8)))
        with pytest.raises(SystemExit):
            main(["prune", str(path), "--pattern", "NMT", "--tsolver", "simplex"])


class TestSimulate:
    def test_basic(self, capsys):
        rc = main(["simulate", "--rows", "128", "--cols", "128", "--b-cols", "32"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "EDP" in out

    def test_all_archs(self, capsys):
        for arch in ("TC", "STC", "VEGETA", "RM-STC", "TB-STC"):
            rc = main([
                "simulate", "--rows", "64", "--cols", "64", "--b-cols", "16", "--arch", arch,
            ])
            assert rc == 0

    def test_unknown_arch(self, capsys):
        rc = main(["simulate", "--rows", "64", "--cols", "64", "--b-cols", "16", "--arch", "TPU"])
        assert rc == 2

    def test_invalid_sparsity(self, capsys):
        rc = main([
            "simulate", "--rows", "64", "--cols", "64", "--b-cols", "16",
            "--sparsity", "-0.1",
        ])
        assert rc == 2
        assert "sparsity must be in [0, 1)" in capsys.readouterr().err

    def test_invalid_dims(self, capsys):
        rc = main(["simulate", "--rows", "0", "--cols", "64", "--b-cols", "16"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_strict_checks(self, capsys):
        rc = main([
            "simulate", "--rows", "64", "--cols", "64", "--b-cols", "16",
            "--checks", "strict",
        ])
        assert rc == 0
        assert "cycles" in capsys.readouterr().out

    def test_orientation_flag(self, capsys):
        rc = main([
            "simulate", "--rows", "64", "--cols", "64", "--b-cols", "16",
            "--orientation", "transposed",
        ])
        assert rc == 0
        assert "cycles" in capsys.readouterr().out

    def test_rejects_unknown_orientation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "simulate", "--rows", "64", "--cols", "64", "--b-cols", "16",
                "--orientation", "diagonal",
            ])


class TestFaults:
    SMALL = ["--trials", "4", "--rows", "16", "--cols", "16",
             "--formats", "ddc", "csr", "--models", "meta_flip", "value_flip"]

    def test_small_campaign_prints_table(self, capsys):
        assert main(["faults", "--seed", "0", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "SDC rate" in out and "coverage" in out
        assert "ddc" in out and "csr" in out
        assert "ecc=none" in out

    def test_seed_zero_is_bit_reproducible(self, capsys):
        assert main(["faults", "--seed", "0", *self.SMALL]) == 0
        first = capsys.readouterr().out
        assert main(["faults", "--seed", "0", *self.SMALL]) == 0
        assert capsys.readouterr().out == first

    def test_secded_prints_overhead_line(self, capsys):
        assert main(["faults", "--seed", "0", "--ecc", "secded", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "ecc=secded" in out
        assert "ecc overhead" in out and "check bits" in out and "pJ" in out

    def test_secded_metadata_column_has_no_silent(self, capsys):
        assert main([
            "faults", "--seed", "0", "--ecc", "secded", "--trials", "6",
            "--rows", "16", "--cols", "16", "--models", "meta_flip",
        ]) == 0
        for line in capsys.readouterr().out.splitlines():
            if "meta_flip" in line:
                assert "0.0%" in line  # SDC-rate column

    def test_campaign_cells_cache_and_resume(self, tmp_path, capsys):
        argv = ["faults", "--seed", "1", *self.SMALL, "--checkpoint-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.glob("faults-*.pkl"))
        assert main([*argv, "--resume"]) == 0
        second = capsys.readouterr().out
        assert second.splitlines()[1:4] == first.splitlines()[1:4]  # same table
        assert "4 from cache" in second

    def test_rejects_unknown_format(self, capsys):
        """--formats choices derive from the registry, so argparse
        rejects unknown names before the campaign ever builds."""
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "--formats", "coo"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_formats_flag_accepts_bcsrcoo(self, capsys):
        assert main([
            "faults", "--trials", "2", "--rows", "16", "--cols", "16",
            "--formats", "bcsrcoo", "--models", "value_flip",
        ]) == 0
        assert "bcsrcoo" in capsys.readouterr().out

    def test_rejects_unknown_model(self, capsys):
        assert main(["faults", "--models", "row_hammer"]) == 2
        assert "unknown fault model" in capsys.readouterr().err

    def test_rejects_zero_trials(self, capsys):
        assert main(["faults", "--trials", "0"]) == 2
        assert "--trials" in capsys.readouterr().err

    def test_rejects_bad_sparsity(self, capsys):
        assert main(["faults", "--sparsity", "1.0"]) == 2
        assert "sparsity" in capsys.readouterr().err


class TestJsonOutputs:
    """The machine-readable paths: --json payloads, --metrics files, trace."""

    def test_simulate_json_round_trips(self, capsys):
        from repro.sim.metrics import SIM_RESULT_SCHEMA, SimResult

        rc = main([
            "simulate", "--rows", "64", "--cols", "64", "--b-cols", "16", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SIM_RESULT_SCHEMA
        assert payload["metrics"] is None  # obs off by default
        back = SimResult.from_dict(payload)
        assert back.to_dict() == payload

    def test_sweep_json_is_loadable(self, capsys):
        assert main(["report", "fig17"]) is not None  # warm any caches
        capsys.readouterr()
        assert main(["report", "fig17", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload  # {layer-kind: {direction: share}}
        for table in payload.values():
            assert isinstance(table, dict)

    def test_faults_json_schema(self, capsys):
        rc = main([
            "faults", "--trials", "4", "--rows", "16", "--cols", "16",
            "--formats", "ddc", "--models", "meta_flip", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["cells", "spec"]
        (cell,) = payload["cells"]
        assert sorted(cell) == [
            "counts", "coverage", "format", "model", "sdc_rate", "skipped",
        ]
        assert sum(cell["counts"].values()) == payload["spec"]["trials"]

    def test_trace_writes_perfetto_loadable_file(self, tmp_path, capsys):
        from repro.obs import METRICS_SCHEMA
        from repro.obs.state import enabled

        out = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        rc = main([
            "report", "fig17", "--trace", str(out), "--metrics", str(metrics_path),
        ])
        assert rc == 0
        assert not enabled()  # the scope must not leak obs globally
        assert "events ->" in capsys.readouterr().out

        trace = json.loads(out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert events
        # balanced spans and monotonic per-track timestamps
        depth, last_ts = {}, {}
        for event in events:
            if event["ph"] == "M":
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= last_ts.get(key, float("-inf"))
            last_ts[key] = event["ts"]
            if event["ph"] == "B":
                depth[event["name"]] = depth.get(event["name"], 0) + 1
            elif event["ph"] == "E":
                depth[event["name"]] -= 1
        assert all(v == 0 for v in depth.values())

        metrics = json.loads(metrics_path.read_text())
        assert metrics["schema_version"] == METRICS_SCHEMA
        assert metrics["counters"]["sweep.cells_ok"] >= 1
        assert "timers" not in metrics

    def test_report_metrics_flag_writes_file(self, tmp_path, capsys):
        from repro.obs import METRICS_SCHEMA
        from repro.obs.state import enabled

        path = tmp_path / "metrics.json"
        assert main(["report", "fig17", "--metrics", str(path)]) == 0
        assert not enabled()
        metrics = json.loads(path.read_text())
        assert metrics["schema_version"] == METRICS_SCHEMA
        assert metrics["counters"]["sweep.cells_ok"] == 3  # one per fig17 cell
        assert not [name for name in metrics["counters"] if name.startswith("runner.")]

    def test_sweep_metrics_identical_across_workers(self, tmp_path):
        """The acceptance contract: --metrics bytes don't depend on N."""
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(["report", "fig17", "--metrics", str(serial)]) == 0
        assert main([
            "report", "fig17", "--metrics", str(parallel), "--workers", "2",
        ]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestCellFailureExitCodes:
    """report/faults exit 1 on cell failures (2 stays for usage errors),
    and --allow-partial downgrades them to a warning + exit 0."""

    @pytest.fixture
    def chaos(self, monkeypatch):
        # deterministically fail every cell's first 5 attempts
        monkeypatch.setenv("REPRO_SWEEP_CHAOS", "raise:5")

    def test_sweep_cell_failures_exit_1(self, chaos, capsys):
        assert main(["report", "fig17", "--json"]) == 1
        captured = capsys.readouterr()
        assert "error: cell" in captured.err
        assert "ChaosError" in captured.err

    def test_sweep_allow_partial_exits_0(self, chaos, capsys):
        assert main(["report", "fig17", "--json", "--allow-partial"]) == 0
        captured = capsys.readouterr()
        assert "--allow-partial" in captured.err
        assert json.loads(captured.out.splitlines()[-1]) == {}

    def test_sweep_usage_error_still_exits_2(self, capsys):
        assert main(["report", "fig17", "--resume"]) == 2

    def test_sweep_clean_run_still_exits_0(self, capsys):
        assert main(["report", "fig17", "--json"]) == 0

    def test_faults_cell_failures_exit_1(self, chaos, capsys):
        rc = main([
            "faults", "--trials", "1", "--formats", "dense",
            "--models", "value_flip",
        ])
        assert rc == 1
        assert "error: cell faults-dense-value_flip" in capsys.readouterr().err

    def test_faults_allow_partial_exits_0(self, chaos, capsys):
        rc = main([
            "faults", "--trials", "1", "--formats", "dense",
            "--models", "value_flip", "--allow-partial",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "warning: skipped failed cell faults-dense-value_flip" in captured.err
        assert "ecc=none" in captured.out  # table still rendered (empty)


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve", "--data-dir", "/tmp/x"])
        assert args.port == 8765 and args.host == "127.0.0.1"
        assert args.job_workers == 1 and args.queue_size == 64
        assert args.rate == 10.0 and args.burst == 20.0
        assert args.allow_fn_prefix is None

    def test_data_dir_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_invalid_config_exits_2(self, capsys):
        assert main([
            "serve", "--data-dir", "/tmp/x", "--job-workers", "0",
        ]) == 2
        assert "job_workers" in capsys.readouterr().err
