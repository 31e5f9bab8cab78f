"""Tests for the supervision layer: executors, retries, circuit breaker.

Worker-death and hang scenarios run real child processes (SIGKILL,
``os._exit``, ``time.sleep`` past a deadline) -- the point is that the
supervisor observes them instead of hanging or unwinding.  Timings are
kept small but generous: assertions are on *outcomes* (status, attempt
counts, byte-equal values), never on wall-clock except for coarse
"finished well before the hang duration" bounds.
"""

import os
import time

import pytest

from repro.sweep import (
    RetryPolicy,
    SerialExecutor,
    SupervisedProcessExecutor,
    Supervisor,
    SweepCell,
    SweepOptions,
    SweepSpec,
    fn_ref,
    run_sweep,
)

from . import _cells


def _payload(key, fn, **kwargs):
    return {"key": key, "fn": fn_ref(fn), "kwargs": kwargs, "seed": None,
            "check_level": "off", "obs": False}


def _drain(supervisor, payloads):
    """Run the supervisor to completion; ``{key: (status, attempts)}``."""
    out = {}
    for raw, attempts in supervisor.run(payloads):
        out[raw[0]] = (raw[1], attempts, raw[2])
    return out


class TestRetryPolicy:
    def test_only_transient_statuses_retry(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry("crashed", 1)
        assert policy.should_retry("timeout", 2)
        assert not policy.should_retry("failed", 1)
        assert not policy.should_retry("ok", 1)

    def test_max_attempts_bounds_retries(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.should_retry("crashed", 1)
        assert not policy.should_retry("crashed", 2)

    def test_default_never_retries(self):
        assert not RetryPolicy().should_retry("crashed", 1)

    def test_delay_deterministic_and_exponential(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1, backoff_factor=2.0, seed=7)
        d1 = policy.delay_s("cell-a", 1)
        assert d1 == policy.delay_s("cell-a", 1)  # pure function of (key, n)
        # Base doubles per attempt; jitter stretches by at most 10%.
        assert 0.1 <= d1 <= 0.1 * 1.1
        assert 0.2 <= policy.delay_s("cell-a", 2) <= 0.2 * 1.1
        assert 0.4 <= policy.delay_s("cell-a", 3) <= 0.4 * 1.1

    def test_jitter_varies_by_key(self):
        policy = RetryPolicy(max_attempts=2, backoff_s=1.0, jitter=0.5)
        delays = {policy.delay_s(f"cell-{i}", 1) for i in range(16)}
        assert len(delays) > 1

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="transient"):
            RetryPolicy(retry_statuses=("failed",))


class TestExecutorChoice:
    """The run decides the executor: inline only for one worker with no
    timeout, no retries and no chaos; a supervised child process else."""

    SPEC = SweepSpec("where", (SweepCell(key="pid", fn=_cells.pid_of_worker),))

    def _pid(self, workers, **options):
        result = run_sweep(self.SPEC, workers=workers, options=SweepOptions(**options))
        return result.value("pid")

    def test_one_worker_runs_inline(self):
        assert self._pid(1) == os.getpid()

    def test_more_workers_run_supervised(self):
        assert self._pid(2) != os.getpid()

    def test_timeout_runs_supervised(self):
        assert self._pid(1, timeout=30.0) != os.getpid()

    def test_retries_run_supervised(self):
        assert self._pid(1, retries=1) != os.getpid()

    def test_chaos_runs_supervised(self, tmp_path):
        """A crash cell run inline would take this process with it."""
        from repro.faults.chaos import ChaosConfig

        chaos = ChaosConfig(modes=("crash",), ledger_dir=str(tmp_path))
        result = run_sweep(self.SPEC, workers=1, options=SweepOptions(chaos=chaos))
        assert result.cells[0].status == "crashed"

    def test_timeout_at_one_worker_is_enforced(self):
        spec = SweepSpec("slow", (
            SweepCell(key="slow", fn=_cells.sleep_then, kwargs={"x": 1, "seconds": 5.0}),
        ))
        start = time.monotonic()
        result = run_sweep(spec, workers=1, options=SweepOptions(timeout=0.5))
        assert result.cells[0].status == "timeout"
        assert time.monotonic() - start < 4.5


class TestSerialExecutor:
    def test_submit_then_poll_settles_inline(self):
        ex = SerialExecutor()
        ex.submit(_payload("k", _cells.square, x=5))
        assert ex.free_slots() == 0  # settled result must be drained first
        (raw,) = ex.poll(0.0)
        assert raw[0] == "k" and raw[1] == "ok" and raw[2] == 25
        assert ex.free_slots() == 1


class TestSupervisedExecutor:
    def test_worker_exit_classified_crashed(self):
        ex = SupervisedProcessExecutor(1)
        try:
            ex.submit(_payload("k", _cells.crash_self, code=23))
            settled = []
            deadline = time.monotonic() + 30
            while not settled and time.monotonic() < deadline:
                settled = ex.poll(0.2)
            (raw,) = settled
            assert raw[1] == "crashed"
            assert "exitcode 23" in raw[2]["error"]
        finally:
            ex.close()

    def test_sigkilled_worker_never_hangs_the_sweep(self, tmp_path):
        spec = SweepSpec("sigkill", (
            SweepCell(key="victim", fn=_cells.sigkill_self),
            SweepCell(key="x=3", fn=_cells.square, kwargs={"x": 3}),
        ))
        result = run_sweep(spec, workers=2)
        assert result.value("x=3") == 9  # sibling unaffected
        victim = result.cells[0]
        assert victim.status == "crashed" and "died without a result" in victim.error
        assert not result.ok

    def test_hung_cell_times_out_without_stalling_siblings(self):
        spec = SweepSpec("hangs", (
            SweepCell(key="hung", fn=_cells.hang, kwargs={"seconds": 600.0}),
            SweepCell(key="x=2", fn=_cells.square, kwargs={"x": 2}),
            SweepCell(key="x=4", fn=_cells.square, kwargs={"x": 4}),
        ))
        start = time.monotonic()
        result = run_sweep(
            spec, workers=2, options=SweepOptions(timeout=2.0)
        )
        elapsed = time.monotonic() - start
        assert elapsed < 60  # nowhere near the 600 s sleep
        hung = result.cells[0]
        assert hung.status == "timeout"
        assert "timeout" in hung.error
        assert result.value("x=2") == 4 and result.value("x=4") == 16

    def test_deterministic_raise_never_retried(self):
        spec = SweepSpec("boom", (
            SweepCell(key="bad", fn=_cells.boom, kwargs={"x": 1}),
        ))
        result = run_sweep(
            spec, workers=1, options=SweepOptions(retries=3)
        )
        cell = result.cells[0]
        assert cell.status == "failed"
        assert cell.attempts == 1  # retry budget untouched
        assert result.supervision == {}


class TestRetries:
    def test_crashed_cell_retried_to_success(self, tmp_path):
        spec = SweepSpec("crash-once", tuple(
            SweepCell(
                key=f"x={i}", fn=_cells.crash_first,
                kwargs={"marker_dir": str(tmp_path), "x": i},
            )
            for i in range(3)
        ))
        result = run_sweep(
            spec, workers=2, options=SweepOptions(retries=1)
        )
        assert result.ok
        assert [c.value for c in result.cells] == [0, 7, 14]
        assert all(c.attempts == 2 for c in result.cells)
        assert result.supervision["retries"] == 3
        assert result.supervision["crashes"] == 3

    def test_hung_cell_retried_after_timeout(self, tmp_path):
        spec = SweepSpec("hang-once", (
            SweepCell(
                key="x=5", fn=_cells.hang_first,
                kwargs={"marker_dir": str(tmp_path), "x": 5, "seconds": 600.0},
            ),
        ))
        result = run_sweep(
            spec, workers=1,
            options=SweepOptions(timeout=2.0, retries=1),
        )
        assert result.ok
        assert result.value("x=5") == 105
        assert result.cells[0].attempts == 2
        assert result.supervision["timeouts"] == 1
        assert result.supervision["retries"] == 1

    def test_exhausted_retries_surface_transient_status(self):
        spec = SweepSpec("crash-always", (
            SweepCell(key="doomed", fn=_cells.crash_self),
            SweepCell(key="x=6", fn=_cells.square, kwargs={"x": 6}),
        ))
        result = run_sweep(
            spec, workers=2, options=SweepOptions(retries=1)
        )
        doomed = result.cells[0]
        assert doomed.status == "crashed"
        assert doomed.attempts == 2  # initial + one retry, both crashed
        assert result.value("x=6") == 36
        assert not result.ok

    def test_summary_and_metrics_report_supervision(self, tmp_path):
        from repro import obs

        spec = SweepSpec("crash-once", (
            SweepCell(
                key="x=1", fn=_cells.crash_first,
                kwargs={"marker_dir": str(tmp_path), "x": 1},
            ),
        ))
        obs.reset()
        with obs.enabled_scope():
            result = run_sweep(
                spec, workers=1, options=SweepOptions(retries=1)
            )
            counters = obs.metrics_dict(deterministic_only=True)["counters"]
        assert "1 retries" in result.summary()
        assert result.supervision == {"retries": 1, "crashes": 1}
        assert counters["sweep.retries"] == 1
        assert counters["sweep.crashes"] == 1
        assert counters["sweep.cells_ok"] == 1


class TestCircuitBreaker:
    def _crashy_then_clean(self, n_crash, n_clean):
        cells = [
            SweepCell(key=f"crash-{i}", fn=_cells.crash_self) for i in range(n_crash)
        ] + [
            SweepCell(key=f"x={i}", fn=_cells.square, kwargs={"x": i})
            for i in range(n_clean)
        ]
        return [
            {"key": c.key, "fn": c.fn, "kwargs": c.kwargs, "seed": None,
             "check_level": "off", "obs": False}
            for c in cells
        ]

    def test_consecutive_crashes_degrade_to_inline(self):
        ex = SupervisedProcessExecutor(1)
        sup = Supervisor(ex, RetryPolicy(max_attempts=1), breaker_threshold=2)
        try:
            out = _drain(sup, self._crashy_then_clean(2, 3))
        finally:
            ex.close()
        assert sup.degraded
        assert sup.stats.degraded == 1
        assert sup.stats.crashes == 2
        assert out["crash-0"][0] == "crashed" and out["crash-1"][0] == "crashed"
        # Clean cells completed inline after the trip.
        assert [out[f"x={i}"][0] for i in range(3)] == ["ok", "ok", "ok"]
        assert [out[f"x={i}"][2] for i in range(3)] == [0, 1, 4]

    def test_success_resets_consecutive_counter(self):
        ex = SupervisedProcessExecutor(1)
        sup = Supervisor(ex, RetryPolicy(max_attempts=1), breaker_threshold=2)
        # Interleave: crash, ok, crash, ok -- never two consecutive crashes.
        payloads = self._crashy_then_clean(1, 1)
        extra = [
            {"key": "crash-b", "fn": fn_ref(_cells.crash_self), "kwargs": {},
             "seed": None, "check_level": "off", "obs": False},
            {"key": "x=9", "fn": fn_ref(_cells.square), "kwargs": {"x": 9},
             "seed": None, "check_level": "off", "obs": False},
        ]
        try:
            out = _drain(sup, payloads + extra)
        finally:
            ex.close()
        assert not sup.degraded
        assert sup.stats.crashes == 2
        assert out["x=9"][0] == "ok"

    def test_breaker_disabled_with_none_threshold(self):
        ex = SupervisedProcessExecutor(1)
        sup = Supervisor(ex, RetryPolicy(max_attempts=1), breaker_threshold=None)
        try:
            out = _drain(sup, self._crashy_then_clean(6, 1))
        finally:
            ex.close()
        assert not sup.degraded
        assert sup.stats.crashes == 6
        assert out["x=0"][0] == "ok"

    def test_rejects_bad_threshold(self):
        ex = SerialExecutor()
        with pytest.raises(ValueError, match="breaker_threshold"):
            Supervisor(ex, breaker_threshold=0)
