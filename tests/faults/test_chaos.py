"""Tests for the chaos-injection harness and its engine integration.

The harness's two contracts (see :mod:`repro.faults.chaos`): a chaos
sweep with retries is byte-identical to a clean serial run, and the cell
cache is chaos-transparent (``--resume`` after killing a chaos sweep
recomputes only missing cells).
"""

import json
import pickle

import pytest

from repro.faults.chaos import (
    CHAOS_MODES,
    ChaosConfig,
    ChaosError,
    attempt_count,
    chaos_from_env,
    chaotic,
    wrap_payload,
)
from repro.runtime.cellcache import CellCache
from repro.sweep import SweepCell, SweepOptions, SweepSpec, fn_ref, run_sweep

from ..sweep import _cells


def _square_spec(n=4, name="chaos-squares"):
    return SweepSpec(name, tuple(
        SweepCell(key=f"x={i}", fn=_cells.square, kwargs={"x": i}) for i in range(n)
    ))


class TestChaosConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one mode"):
            ChaosConfig(modes=())
        with pytest.raises(ValueError, match="unknown chaos modes"):
            ChaosConfig(modes=("crash", "meltdown"))
        with pytest.raises(ValueError, match="first_n"):
            ChaosConfig(first_n=0)
        with pytest.raises(ValueError, match="fraction"):
            ChaosConfig(fraction=0.0)
        with pytest.raises(ValueError, match="hang_s"):
            ChaosConfig(hang_s=-1.0)

    def test_mode_for_is_deterministic(self):
        config = ChaosConfig(modes=("crash", "hang", "raise"), seed=3)
        picks = {key: config.mode_for(key) for key in ("a", "b", "c", "d")}
        assert picks == {key: config.mode_for(key) for key in picks}
        assert set(picks.values()) <= set(CHAOS_MODES)

    def test_fraction_spares_a_deterministic_share(self):
        keys = [f"cell-{i}" for i in range(200)]
        config = ChaosConfig(fraction=0.3, seed=1)
        victims = [k for k in keys if config.mode_for(k) is not None]
        assert 0 < len(victims) < len(keys)
        assert victims == [k for k in keys if config.mode_for(k) is not None]
        # fraction=1 afflicts everyone.
        assert all(ChaosConfig().mode_for(k) is not None for k in keys)


class TestChaosFromEnv:
    def test_absent_or_blank_means_no_chaos(self):
        assert chaos_from_env({}) is None
        assert chaos_from_env({"REPRO_SWEEP_CHAOS": "  "}) is None

    def test_modes_and_first_n_parse(self):
        config = chaos_from_env({"REPRO_SWEEP_CHAOS": "crash+hang:3"})
        assert config.modes == ("crash", "hang")
        assert config.first_n == 3

    def test_default_first_n_is_one(self):
        assert chaos_from_env({"REPRO_SWEEP_CHAOS": "raise"}).first_n == 1

    def test_companion_vars(self):
        config = chaos_from_env({
            "REPRO_SWEEP_CHAOS": "corrupt:2",
            "REPRO_SWEEP_CHAOS_SEED": "9",
            "REPRO_SWEEP_CHAOS_FRACTION": "0.5",
            "REPRO_SWEEP_CHAOS_HANG_S": "12.5",
            "REPRO_SWEEP_CHAOS_DIR": "/tmp/ledger",
        })
        assert config.seed == 9
        assert config.fraction == 0.5
        assert config.hang_s == 12.5
        assert config.ledger_dir == "/tmp/ledger"

    def test_malformed_spec_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            chaos_from_env({"REPRO_SWEEP_CHAOS": "crash:lots"})
        with pytest.raises(ValueError, match="unknown chaos modes"):
            chaos_from_env({"REPRO_SWEEP_CHAOS": "meltdown"})


class TestLedger:
    def test_attempts_start_at_zero_and_survive(self, tmp_path):
        assert attempt_count(tmp_path, "cell") == 0
        with pytest.raises(ChaosError):
            chaotic(
                fn=fn_ref(_cells.square), kwargs={"x": 2}, mode="raise",
                first_n=1, ledger_dir=str(tmp_path), key="cell",
            )
        assert attempt_count(tmp_path, "cell") == 1
        # Second attempt is past first_n: runs the real cell.
        value = chaotic(
            fn=fn_ref(_cells.square), kwargs={"x": 2}, mode="raise",
            first_n=1, ledger_dir=str(tmp_path), key="cell",
        )
        assert value == 4
        assert attempt_count(tmp_path, "cell") == 2

    def test_keys_do_not_collide(self, tmp_path):
        with pytest.raises(ChaosError):
            chaotic(
                fn=fn_ref(_cells.square), kwargs={"x": 1}, mode="raise",
                first_n=1, ledger_dir=str(tmp_path), key="a",
            )
        assert attempt_count(tmp_path, "a") == 1
        assert attempt_count(tmp_path, "b") == 0


class TestChaotic:
    def test_corrupt_returns_marker_then_real_value(self, tmp_path):
        kwargs = dict(
            fn=fn_ref(_cells.square), kwargs={"x": 3}, mode="corrupt",
            first_n=1, ledger_dir=str(tmp_path), key="cell",
        )
        first = chaotic(**kwargs)
        assert first != 9 and first.get("__chaos_corrupt__")
        assert chaotic(**kwargs) == 9


class TestWrapPayload:
    def _payload(self):
        return {"key": "x=1", "fn": fn_ref(_cells.square), "kwargs": {"x": 1},
                "seed": None, "check_level": "off", "obs": False}

    def test_wrapped_fn_is_the_trampoline(self, tmp_path):
        config = ChaosConfig(modes=("raise",))
        wrapped = wrap_payload(self._payload(), config, tmp_path)
        assert wrapped["fn"] == "repro.faults.chaos:chaotic"
        assert wrapped["kwargs"]["fn"] == fn_ref(_cells.square)
        assert wrapped["kwargs"]["mode"] == "raise"
        assert wrapped["key"] == "x=1"  # identity fields untouched

    def test_spared_cells_come_back_unchanged(self, tmp_path):
        config = ChaosConfig(fraction=1e-6, seed=0)
        payload = self._payload()
        assert wrap_payload(payload, config, tmp_path) is payload


def _canon(result):
    return json.dumps(result.values(), sort_keys=True, default=repr)


class TestChaosSweeps:
    """Engine integration: the invariants the harness exists to pin."""

    def test_crash_chaos_with_retries_matches_clean_serial(self, tmp_path):
        clean = run_sweep(_square_spec(), workers=1)
        chaos = ChaosConfig(modes=("crash",), ledger_dir=str(tmp_path / "ledger"))
        chaotic_run = run_sweep(
            _square_spec(), workers=2, options=SweepOptions(retries=2, chaos=chaos),
        )
        assert chaotic_run.ok
        assert _canon(chaotic_run) == _canon(clean)
        assert pickle.dumps(chaotic_run.values()) == pickle.dumps(clean.values())
        assert chaotic_run.supervision["retries"] == 4
        assert chaotic_run.supervision["crashes"] == 4
        assert all(c.attempts == 2 for c in chaotic_run.cells)

    def test_chaos_byte_identical_at_any_worker_count(self, tmp_path):
        clean = run_sweep(_square_spec(6), workers=1)
        runs = {}
        for workers in (1, 4):
            chaos = ChaosConfig(
                modes=("crash", "raise"), seed=2, fraction=0.7,
                ledger_dir=str(tmp_path / f"ledger-{workers}"),
            )
            runs[workers] = run_sweep(
                _square_spec(6), workers=workers,
                options=SweepOptions(retries=2, chaos=chaos),
            )
        # "raise" victims fail deterministically in both runs; crash
        # victims recover -- and the *outcomes* are worker-count-invariant.
        for workers, result in runs.items():
            assert [c.status for c in result.cells] == \
                [c.status for c in runs[1].cells]
        assert _canon_statuses(runs[4]) == _canon_statuses(runs[1])
        assert runs[1].supervision == runs[4].supervision
        # Every non-raise cell carries the clean value.
        for cell, clean_cell in zip(runs[4].cells, clean.cells):
            if cell.status == "ok":
                assert cell.value == clean_cell.value

    def test_raise_mode_is_deterministic_failure(self, tmp_path):
        chaos = ChaosConfig(modes=("raise",), ledger_dir=str(tmp_path))
        result = run_sweep(
            _square_spec(2), workers=1, options=SweepOptions(retries=3, chaos=chaos),
        )
        assert [c.status for c in result.cells] == ["failed", "failed"]
        assert all(c.attempts == 1 for c in result.cells)
        assert all("ChaosError" in c.error for c in result.cells)
        assert "retries" not in result.supervision

    def test_chaos_runs_share_cache_with_clean_runs(self, tmp_path):
        cache_dir = tmp_path / "cache"
        chaos = ChaosConfig(modes=("crash",), ledger_dir=str(tmp_path / "ledger"))
        first = run_sweep(
            _square_spec(), workers=2, cache_dir=cache_dir,
            options=SweepOptions(retries=1, chaos=chaos),
        )
        assert first.ok
        # A clean resume serves every cell from the chaos run's cache.
        resumed = run_sweep(_square_spec(), workers=1, cache_dir=cache_dir, resume=True)
        assert all(c.status == "cached" for c in resumed.cells)
        assert resumed.values() == first.values()

    def test_resume_after_kill_recomputes_only_missing_cells(self, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        cache_dir = tmp_path / "cache"

        def spec():
            return SweepSpec("resume", tuple(
                SweepCell(
                    key=f"x={i}", fn=_cells.record_run,
                    kwargs={"marker_dir": str(marker_dir), "x": i},
                )
                for i in range(5)
            ))

        full = run_sweep(spec(), workers=1, cache_dir=cache_dir)
        assert full.ok
        # Simulate a kill that lost two cells' cache entries.
        victims = {"x=1", "x=3"}
        removed = 0
        for cell in spec().cells:
            if cell.key in victims:
                CellCache(cache_dir).path(cell.key, cell.payload()).unlink()
                removed += 1
        assert removed == 2
        for marker in marker_dir.iterdir():
            marker.unlink()

        resumed = run_sweep(spec(), workers=2, cache_dir=cache_dir, resume=True)
        assert resumed.ok
        assert resumed.values() == full.values()
        recomputed = {m.name for m in marker_dir.iterdir()}
        assert recomputed == {"ran-1", "ran-3"}
        statuses = {c.key: c.status for c in resumed.cells}
        assert statuses == {
            "x=0": "cached", "x=1": "ok", "x=2": "cached",
            "x=3": "ok", "x=4": "cached",
        }

    def test_env_activation_reaches_run_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CHAOS", "raise:1")
        monkeypatch.setenv("REPRO_SWEEP_CHAOS_DIR", str(tmp_path))
        result = run_sweep(_square_spec(2), workers=1, options=SweepOptions(retries=0))
        assert [c.status for c in result.cells] == ["failed", "failed"]
        assert all("ChaosError" in c.error for c in result.cells)


def _canon_statuses(result):
    return json.dumps(
        [(c.key, c.status, repr(c.value), c.attempts) for c in result.cells],
        sort_keys=True,
    )
