"""Benchmark harness: suite runs, JSON round-trip, gate, trajectory."""

from __future__ import annotations

import json

import pytest

from repro.perf import bench


@pytest.fixture(scope="module")
def smoke_run():
    return bench.run_suite(profile="smoke", seed=0, name="unit")


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="unknown profile"):
        bench.run_suite(profile="nope")


def test_suite_covers_micro_and_macro(smoke_run):
    names = set(smoke_run["benches"])
    assert {
        "dvpe_costs",
        "schedule_direct",
        "schedule_sparsity_aware",
        "codec_batch",
        "encode_ddc",
        "encode_sdc",
        "encode_csr",
        "encode_bitmap",
        "simulate_layer",
        "sweep_fig13_mini",
        "nn_train_step_cnn",
        "nn_evaluate_cnn",
    } <= names


def test_bench_entries_have_required_fields(smoke_run):
    for name, entry in smoke_run["benches"].items():
        assert entry["wall_s"] > 0, name
        assert entry["cells"] > 0, name
        assert entry["cells_per_s"] > 0, name
        assert entry["normalized"] == pytest.approx(
            entry["wall_s"] / smoke_run["calibration_s"]
        ), name
        assert isinstance(entry["stages"], dict), name
    assert smoke_run["schema"] == bench.SCHEMA_VERSION
    assert smoke_run["peak_rss_kb"] > 0
    assert smoke_run["total_wall_s"] > 0


def test_macro_benches_capture_stage_splits(smoke_run):
    stages = smoke_run["benches"]["simulate_layer"]["stages"]
    assert "sim.simulate" in stages
    assert "sim.schedule" in stages


def test_fig13_mini_attributes_workload_and_mask_time(smoke_run):
    """Every architecture builds its workload (mask included) in-repo stages."""
    stages = smoke_run["benches"]["sweep_fig13_mini"]["stages"]
    archs = bench.PROFILES["smoke"]["sweep_archs"]
    assert stages["workloads.build"]["calls"] == archs
    assert stages["core.mask.make_mask"]["calls"] == archs
    assert stages["sim.simulate"]["calls"] == archs
    assert 0 < stages["core.mask.make_mask"]["seconds"] <= stages["workloads.build"]["seconds"]


def test_nn_train_step_splits_the_conv_lowering(smoke_run):
    """The CNN proxy's six convs each gather patches forward once per
    train step; all but the stem scatter their input gradients back (a
    train step never reads the gradient of the model's input)."""
    stages = smoke_run["benches"]["nn_train_step_cnn"]["stages"]
    assert stages["nn.conv.im2col"]["calls"] == 6
    assert stages["nn.conv.col2im"]["calls"] == 5


def test_stages_come_from_one_instrumented_call(smoke_run):
    from repro import obs

    stages = smoke_run["benches"]["encode_ddc"]["stages"]
    assert stages["formats.ddc.encode"]["calls"] == 1
    assert smoke_run["benches"]["dvpe_costs"]["stages"]["hw.dvpe"]["calls"] == 1
    assert not obs.enabled()


def test_codec_batch_times_the_simulator_codec_stage(smoke_run):
    """``codec_batch`` runs simulate()'s whole codec stage, which calls
    the closed-form count once, on the bench workload's matrix."""
    rec = smoke_run["benches"]["codec_batch"]
    assert rec["stages"]["hw.codec"]["calls"] == 1
    assert rec["cells"] == bench.PROFILES["smoke"]["rows"] * bench.PROFILES["smoke"]["cols"]


def test_stage_split_drops_its_trace_events():
    from repro import obs
    from repro.perf import stage

    before = list(obs.events())

    def fn():
        with stage("unit.bench"):
            pass

    assert bench._stage_split(fn)["unit.bench"]["calls"] == 1
    assert obs.events() == before
    assert not obs.enabled()


def test_json_roundtrip(tmp_path, smoke_run):
    path = str(tmp_path / "BENCH_unit.json")
    bench.write_bench_json(path, smoke_run)
    loaded = bench.load_bench_json(path)
    assert loaded == json.loads(json.dumps(smoke_run))


def test_load_rejects_wrong_schema(tmp_path):
    path = str(tmp_path / "BENCH_bad.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": 99, "benches": {}}, fh)
    with pytest.raises(ValueError, match="schema"):
        bench.load_bench_json(path)


def _mini_report(**normalized):
    return {
        "schema": bench.SCHEMA_VERSION,
        "benches": {
            name: {"normalized": norm, "wall_s": norm * 0.1}
            for name, norm in normalized.items()
        },
    }


def test_compare_passes_within_tolerance():
    base = _mini_report(a=1.0, b=2.0)
    cur = _mini_report(a=1.2, b=1.0)  # +20% and a speed-up
    failures, lines = bench.compare(cur, base, tolerance=0.25)
    assert failures == []
    assert len(lines) == 2


def test_compare_fails_beyond_tolerance():
    base = _mini_report(a=1.0)
    cur = _mini_report(a=1.3)
    failures, _ = bench.compare(cur, base, tolerance=0.25)
    assert len(failures) == 1
    assert "a" in failures[0]


def test_compare_is_one_sided():
    # A 10x speed-up must never fail the gate.
    failures, _ = bench.compare(_mini_report(a=0.1), _mini_report(a=1.0), tolerance=0.0)
    assert failures == []


def test_compare_passes_an_added_bench():
    failures, lines = bench.compare(_mini_report(old=1.0, new=1.0), _mini_report(old=1.0))
    assert failures == []
    assert any("new bench" in line for line in lines)


def test_compare_fails_a_removed_bench():
    failures, lines = bench.compare(_mini_report(new=1.0), _mini_report(old=1.0, new=1.0))
    assert len(failures) == 1
    assert failures[0].startswith("old:")
    assert any("only in baseline" in line for line in lines)


def test_compare_rejects_negative_tolerance():
    with pytest.raises(ValueError, match="tolerance"):
        bench.compare(_mini_report(), _mini_report(), tolerance=-0.1)


def test_trajectory_appends_json_lines(tmp_path):
    path = str(tmp_path / "traj.jsonl")
    bench.append_trajectory(path, {"step": 1})
    bench.append_trajectory(path, {"step": 2})
    with open(path, encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    assert entries == [{"step": 1}, {"step": 2}]


def test_calibration_is_positive_and_stable():
    a = bench.calibrate(reps=2)
    assert a > 0


def test_merge_best_keeps_faster_record_per_bench():
    slow = _mini_report(a=2.0, b=0.5)
    fast = _mini_report(a=1.0, b=1.5)
    for rep in (slow, fast):
        rep["calibration_s"] = 0.1
        rep["total_wall_s"] = 1.0
        rep["peak_rss_kb"] = 100
    fast["peak_rss_kb"] = 200
    merged = bench.merge_best(slow, fast)
    assert merged["benches"]["a"]["normalized"] == 1.0
    assert merged["benches"]["b"]["normalized"] == 0.5
    assert merged["total_wall_s"] == pytest.approx(2.0)
    assert merged["peak_rss_kb"] == 200


def test_run_suite_best_takes_per_bench_minimum(smoke_run):
    merged = bench.run_suite_best("smoke", seed=0, name="best", rounds=2)
    single = smoke_run
    assert set(merged["benches"]) == set(single["benches"])
    for rec in merged["benches"].values():
        assert rec["normalized"] > 0


def test_cli_perf_smoke_and_gate(tmp_path, capsys):
    from repro.cli import main

    out = str(tmp_path)
    assert main(["perf", "--profile", "smoke", "--name", "b0", "--out-dir", out]) == 0
    baseline = str(tmp_path / "BENCH_b0.json")
    # Self-comparison with a generous tolerance must pass the gate.
    rc = main([
        "perf", "--profile", "smoke", "--name", "b1", "--out-dir", out,
        "--compare", baseline, "--tolerance", "50.0",
        "--trajectory", str(tmp_path / "traj.jsonl"),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "perf gate passed" in captured.out
    with open(tmp_path / "traj.jsonl", encoding="utf-8") as fh:
        entry = json.loads(fh.readline())
    assert entry["profile"] == "smoke"
    assert entry["normalized"]


def test_cli_perf_gate_fails_on_fabricated_regression(tmp_path, capsys):
    from repro.cli import main
    from repro.perf.bench import load_bench_json, write_bench_json

    out = str(tmp_path)
    assert main(["perf", "--profile", "smoke", "--name", "base", "--out-dir", out]) == 0
    path = str(tmp_path / "BENCH_base.json")
    doctored = load_bench_json(path)
    for entry in doctored["benches"].values():
        entry["normalized"] /= 1000.0  # make the baseline impossibly fast
    write_bench_json(path, doctored)
    rc = main([
        "perf", "--profile", "smoke", "--name", "cur", "--out-dir", out,
        "--compare", path, "--tolerance", "0.25",
    ])
    assert rc == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_cli_perf_gate_fails_on_missing_bench_without_rerun(tmp_path, capsys):
    from repro.cli import main
    from repro.perf.bench import load_bench_json, write_bench_json

    out = str(tmp_path)
    assert main(["perf", "--profile", "smoke", "--name", "base", "--out-dir", out]) == 0
    path = str(tmp_path / "BENCH_base.json")
    doctored = load_bench_json(path)
    doctored["benches"]["retired_bench"] = dict(doctored["benches"]["encode_ddc"])
    write_bench_json(path, doctored)
    capsys.readouterr()
    rc = main([
        "perf", "--profile", "smoke", "--name", "cur", "--out-dir", out,
        "--compare", path, "--tolerance", "50.0",
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert "retired_bench" in captured.out and "MISSING" in captured.out
    # A re-run cannot bring a bench back, so the noise retry is skipped.
    assert "re-running" not in captured.out


def test_cli_baseline_write_appends_its_trajectory_row(tmp_path, monkeypatch, capsys):
    """Writing BENCH_baseline.json appends one row to BENCH_trajectory.jsonl
    in the same directory, with or without --trajectory naming that file;
    any other --name appends nowhere unless asked."""
    from repro.cli import main

    def fake_suite(profile, seed, name, rounds):
        report = _mini_report(a=1.0, b=2.0)
        report.update(name=name, profile=profile, calibration_s=0.1, total_wall_s=1.0)
        report["peak_rss_kb"] = 1
        return report

    monkeypatch.setattr(bench, "run_suite_best", fake_suite)
    out = str(tmp_path)
    traj = tmp_path / "BENCH_trajectory.jsonl"
    assert main(["perf", "--profile", "smoke", "--out-dir", out]) == 0
    assert (tmp_path / "BENCH_baseline.json").exists()
    assert main([
        "perf", "--profile", "smoke", "--out-dir", out, "--trajectory", str(traj),
    ]) == 0
    assert main(["perf", "--profile", "smoke", "--name", "other", "--out-dir", out]) == 0
    with open(traj, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert [row["name"] for row in rows] == ["baseline", "baseline"]
    assert rows[0]["normalized"] == {"a": 1.0, "b": 2.0}
    assert rows[0]["profile"] == "smoke" and rows[0]["calibration_s"] == 0.1
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BENCH_baseline.json", "BENCH_other.json", "BENCH_trajectory.jsonl",
    ]
    assert capsys.readouterr().out.count("appended trajectory entry") == 2


def test_cli_perf_missing_out_dir_fails_before_the_suite(tmp_path, monkeypatch, capsys):
    """A --out-dir that does not exist fails at once (exit 2, one line),
    instead of after the whole suite has run and its measurements are lost."""
    from repro.cli import main

    def must_not_run(**kwargs):
        raise AssertionError("the suite ran before the output directory was checked")

    monkeypatch.setattr(bench, "run_suite_best", must_not_run)
    out = tmp_path / "no-such-dir"
    assert main(["perf", "--profile", "smoke", "--name", "probe", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write '{out / 'BENCH_probe.json'}': ")
    assert "No such file or directory" in err and err.count("\n") == 1
    assert not out.exists()
