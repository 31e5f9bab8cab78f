"""Tests for the sweep execution engine (sharding, caching, isolation)."""

import os

import pytest

from repro.runtime.checks import check_level
from repro.sweep import (
    SweepCancelled,
    SweepCell,
    SweepError,
    SweepOptions,
    SweepSpec,
    configured_workers,
    run_sweep,
)

from . import _cells


def _square_spec(n=4, name="squares"):
    return SweepSpec(
        name,
        tuple(SweepCell(key=f"x={i}", fn=_cells.square, kwargs={"x": i}) for i in range(n)),
    )


class TestConfiguredWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert configured_workers() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "8")
        assert configured_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "5")
        assert configured_workers() == 5

    def test_malformed_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "many")
        assert configured_workers() == 1

    def test_rejects_non_positive(self):
        with pytest.raises(SweepError, match="workers"):
            configured_workers(0)


class TestRunSweepInline:
    def test_results_in_spec_order(self):
        result = run_sweep(_square_spec())
        assert [c.key for c in result.cells] == ["x=0", "x=1", "x=2", "x=3"]
        assert [c.value for c in result.cells] == [0, 1, 4, 9]
        assert result.ok and result.workers == 1

    def test_value_lookup(self):
        result = run_sweep(_square_spec())
        assert result.value("x=3") == 9
        with pytest.raises(KeyError):
            result.value("x=99")
        assert result.values() == {"x=0": 0, "x=1": 1, "x=2": 4, "x=3": 9}

    def test_rejects_bad_worker_count(self):
        with pytest.raises(SweepError, match="workers"):
            run_sweep(_square_spec(), workers=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries"):
            SweepOptions(retries=-1)

    def test_progress_called_per_cell(self):
        seen = []
        run_sweep(
            _square_spec(),
            options=SweepOptions(
                progress=lambda cell, done, total: seen.append((cell.key, done, total))
            ),
        )
        assert len(seen) == 4
        assert seen[-1][1:] == (4, 4)


class TestFaultIsolation:
    def _failing_spec(self):
        return SweepSpec(
            "mixed",
            tuple(
                SweepCell(key=f"x={i}", fn=_cells.boom_on, kwargs={"x": i, "bad": 2})
                for i in range(4)
            ),
        )

    def test_failed_cell_is_structured_and_sweep_completes(self):
        result = run_sweep(self._failing_spec())
        assert not result.ok
        assert len(result.cells) == 4  # the sweep ran to the end
        bad = result.cells[2]
        assert bad.status == "failed"
        assert bad.error == "RuntimeError: cell 2 exploded"
        assert "boom_on" in bad.traceback
        assert [c.value for c in result.cells if c.ok] == [0, 10, 30]

    def test_value_raises_for_failed_cell(self):
        result = run_sweep(self._failing_spec())
        with pytest.raises(SweepError, match="cell 2 exploded"):
            result.value("x=2")

    def test_strict_raises_after_completion(self):
        with pytest.raises(SweepError, match="1 cell\\(s\\) failed"):
            run_sweep(self._failing_spec(), strict=True)

    def test_keyboard_interrupt_propagates(self):
        # A user abort is not a cell failure: it must unwind the sweep.
        spec = SweepSpec("abort", (SweepCell(key="k", fn=_cells.interrupt),))
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec)

    def test_unpicklable_value_is_a_failed_cell(self):
        spec = SweepSpec(
            "lam", (SweepCell(key="k", fn=_cells.unpicklable, kwargs={"x": 1}),)
        )
        result = run_sweep(spec)
        assert result.cells[0].status == "failed"
        assert "pickle" in result.cells[0].error.lower()


class TestParallel:
    def test_parallel_matches_inline(self):
        inline = run_sweep(_square_spec(8))
        parallel = run_sweep(_square_spec(8), workers=4)
        assert [c.value for c in parallel.cells] == [c.value for c in inline.cells]
        assert parallel.workers == 4

    def test_work_happens_in_worker_processes(self):
        spec = SweepSpec(
            "pids",
            tuple(SweepCell(key=f"c{i}", fn=_cells.pid_of_worker) for i in range(4)),
        )
        result = run_sweep(spec, workers=2)
        assert all(c.worker != os.getpid() for c in result.cells)

    def test_worker_failure_is_isolated(self):
        spec = SweepSpec(
            "mixed",
            tuple(
                SweepCell(key=f"x={i}", fn=_cells.boom_on, kwargs={"x": i, "bad": 1})
                for i in range(4)
            ),
        )
        result = run_sweep(spec, workers=2)
        assert [c.status for c in result.cells] == ["ok", "failed", "ok", "ok"]
        assert result.cells[1].error == "RuntimeError: cell 1 exploded"
        assert result.cells[1].traceback

    def test_check_level_propagates_to_workers(self):
        spec = SweepSpec(
            "lvl", (SweepCell(key="k", fn=_cells.ambient_check_level),)
        )
        with check_level("strict"):
            result = run_sweep(spec, workers=2)
        assert result.value("k") == "strict"


class TestCellCache:
    def test_resume_serves_cached_cells(self, tmp_path):
        first = run_sweep(_square_spec(), cache_dir=tmp_path)
        assert all(c.status == "ok" for c in first.cells)
        assert len(list(tmp_path.glob("*.pkl"))) == 4

        second = run_sweep(_square_spec(), cache_dir=tmp_path, resume=True)
        assert all(c.status == "cached" for c in second.cells)
        assert [c.value for c in second.cells] == [c.value for c in first.cells]
        assert "4 from cache" in second.summary()
        assert not list(tmp_path.glob(".tmp-cell-*"))  # every publish renamed its temp file

    def test_without_resume_cache_is_ignored(self, tmp_path):
        run_sweep(_square_spec(), cache_dir=tmp_path)
        again = run_sweep(_square_spec(), cache_dir=tmp_path)
        assert all(c.status == "ok" for c in again.cells)

    def test_cache_keys_on_kwargs(self, tmp_path):
        run_sweep(_square_spec(), cache_dir=tmp_path)
        changed = SweepSpec(
            "squares",
            tuple(
                SweepCell(key=f"x={i}", fn=_cells.square, kwargs={"x": i + 10})
                for i in range(4)
            ),
        )
        result = run_sweep(changed, cache_dir=tmp_path, resume=True)
        # same keys, different kwargs -> different hashes -> recompute
        assert all(c.status == "ok" for c in result.cells)
        assert result.value("x=0") == 100

    def test_failed_cells_are_not_cached(self, tmp_path):
        spec = SweepSpec(
            "mixed",
            tuple(
                SweepCell(key=f"x={i}", fn=_cells.boom_on, kwargs={"x": i, "bad": 0})
                for i in range(2)
            ),
        )
        run_sweep(spec, cache_dir=tmp_path)
        resumed = run_sweep(spec, cache_dir=tmp_path, resume=True)
        assert resumed.cells[0].status == "failed"  # recomputed, not served
        assert resumed.cells[1].status == "cached"

    def test_resume_after_partial_sweep_only_computes_missing(self, tmp_path):
        partial = SweepSpec("squares", _square_spec().cells[:2])
        run_sweep(partial, cache_dir=tmp_path)
        full = run_sweep(_square_spec(), cache_dir=tmp_path, resume=True)
        statuses = [c.status for c in full.cells]
        assert statuses == ["cached", "cached", "ok", "ok"]

    def test_none_valued_cell_is_cached_and_served(self, tmp_path):
        spec = SweepSpec("nones", (SweepCell(key="n", fn=_cells.none_value),))
        first = run_sweep(spec, cache_dir=tmp_path)
        assert first.cells[0].status == "ok" and first.cells[0].value is None

        resumed = run_sweep(spec, cache_dir=tmp_path, resume=True)
        # A legitimate None result is a cache *hit*, not a miss.
        assert resumed.cells[0].status == "cached"
        assert resumed.cells[0].value is None


class TestRngHygiene:
    def test_inline_sweep_does_not_perturb_global_rng(self):
        import numpy as np

        np.random.seed(123)
        expected = np.random.random()

        np.random.seed(123)
        spec = SweepSpec("rng", (
            SweepCell(key="draw", fn=_cells.np_draw, seed=7),
            SweepCell(key="draw2", fn=_cells.np_draw, seed=8),
        ))
        result = run_sweep(spec, workers=1)
        assert result.ok
        # The cells drew from their own seeded streams...
        assert result.value("draw") != result.value("draw2")
        # ...and the caller's global stream is exactly where it was.
        assert np.random.random() == expected


class _Flag:
    """Minimal event-like cancel token (anything with is_set())."""

    def __init__(self):
        self._set = False

    def set(self):
        self._set = True

    def is_set(self):
        return self._set


class TestCancellation:
    def test_cancel_mid_sweep_raises_with_pending_keys(self, tmp_path):
        token = _Flag()

        def stop_after_two(cell, done, total):
            if done >= 2:
                token.set()

        with pytest.raises(SweepCancelled) as excinfo:
            run_sweep(
                _square_spec(6), cache_dir=tmp_path,
                options=SweepOptions(progress=stop_after_two, cancel=token),
            )
        exc = excinfo.value
        assert exc.done < exc.total == 6
        assert exc.pending_keys  # the unsettled remainder is reported

    def test_cancelled_sweep_resumes_from_cache(self, tmp_path):
        token = _Flag()

        def stop_immediately(cell, done, total):
            token.set()

        with pytest.raises(SweepCancelled):
            run_sweep(
                _square_spec(6), cache_dir=tmp_path,
                options=SweepOptions(progress=stop_immediately, cancel=token),
            )
        # second run, no cancel: settled cells replay from cache
        result = run_sweep(_square_spec(6), cache_dir=tmp_path, resume=True)
        assert result.ok
        assert result.values() == {f"x={i}": i * i for i in range(6)}
        assert any(c.status == "cached" for c in result.cells)

    def test_cancel_via_options_matches_explicit_kwarg(self, tmp_path):
        token = _Flag()
        token.set()  # pre-set: nothing may run
        options = SweepOptions(cancel=token)
        with pytest.raises(SweepCancelled) as excinfo:
            run_sweep(_square_spec(3), options=options)
        assert excinfo.value.done == 0

    def test_unset_token_changes_nothing(self):
        result = run_sweep(_square_spec(3), options=SweepOptions(cancel=_Flag()))
        assert result.ok and len(result.cells) == 3

    def test_unsettled_cells_without_cancel_are_an_error(self, monkeypatch):
        # A supervisor that silently drops cells is a bug, not a
        # resumable stop: with no cancel token set, the engine must
        # raise plain SweepError, never SweepCancelled.
        from repro.sweep import engine

        class _DroppingSupervisor(engine.Supervisor):
            def run(self, payloads, cancel=None):
                return iter(())

        monkeypatch.setattr(engine, "Supervisor", _DroppingSupervisor)
        with pytest.raises(SweepError) as excinfo:
            run_sweep(_square_spec(3), options=SweepOptions(cancel=_Flag()))
        assert not isinstance(excinfo.value, SweepCancelled)
        assert "never settled" in str(excinfo.value)

    def test_options_progress_callback_is_used(self):
        seen = []
        options = SweepOptions(progress=lambda cell, done, total: seen.append(cell.key))
        result = run_sweep(_square_spec(3), options=options)
        assert result.ok and sorted(seen) == ["x=0", "x=1", "x=2"]
