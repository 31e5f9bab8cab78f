"""Pluggable sweep executors with worker supervision and retries.

The engine (:mod:`repro.sweep.engine`) used to ship cells to a bare
``multiprocessing.Pool``: a worker killed by OOM/SIGKILL either hung the
pool or unwound the whole sweep, a hung cell stalled it forever, and
nothing was ever retried.  This module is the supervision layer that
fixes that, behind a small pluggable interface:

* :class:`SerialExecutor` -- runs every cell inline in the submitting
  process.  Zero overhead, bit-exact reference path; cannot enforce
  timeouts and cannot survive a cell that kills the process, so the
  engine uses it only for sweeps with one worker, no timeout, no
  retries and no chaos.
* :class:`SupervisedProcessExecutor` -- one child process per in-flight
  cell, with a result pipe per child.  The supervisor waits on the
  pipes, so it *observes* worker death (EOF without a result -> the
  attempt is classified ``crashed``) and enforces a per-cell deadline
  (SIGKILL on expiry -> ``timeout``) without ever blocking on a corpse.

Outcome state machine for one attempt::

    submitted -> ok | failed | crashed | timeout
                 (cached is decided by the engine before submission)

``ok``/``failed`` come from inside the cell's isolation boundary
(:func:`repro.sweep.engine._execute_payload`) and are **deterministic**
properties of the cell -- they are never retried.  ``crashed`` and
``timeout`` are infrastructure outcomes -- the :class:`RetryPolicy`
retries exactly these, with exponential backoff whose jitter is
:func:`~repro.sweep.spec.derive_seed`-seeded (so a retried sweep is as
reproducible as a clean one).

:class:`Supervisor` drives an executor over a payload queue, applies the
retry policy, and trips a circuit breaker after ``breaker_threshold``
*consecutive* transient failures: worker processes that die that
reliably mean the process infrastructure itself is broken (fork bombs,
cgroup OOM, a poisoned interpreter), so the supervisor degrades
gracefully to inline serial execution for the remaining cells, logs the
degradation, and counts it in :class:`SupervisionStats` (exported as the
``sweep.degraded`` metric).

Determinism-under-retry contract: cell bodies are pure functions of
their payload (seeds travel inside it), so re-running an attempt cannot
change its value -- a chaos-ridden sweep with retries produces the same
:class:`~repro.sweep.engine.SweepResult` values as a clean serial run.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as _mp_connection
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .spec import derive_seed

__all__ = [
    "BREAKER_THRESHOLD",
    "TRANSIENT_STATUSES",
    "Executor",
    "RetryPolicy",
    "SerialExecutor",
    "Supervisor",
    "SupervisionStats",
    "SupervisedProcessExecutor",
]

logger = logging.getLogger("repro.sweep")

#: Raw per-attempt result: ``(key, status, value_or_detail, elapsed_s,
#: pid, obs_export)`` -- the tuple shape produced by
#: :func:`repro.sweep.engine._execute_payload`, extended with the
#: supervisor-synthesized ``crashed``/``timeout`` statuses.
RawResult = Tuple[str, str, Any, float, int, Optional[Dict[str, Any]]]

#: Attempt outcomes that are infrastructure failures, not properties of
#: the cell -- the only statuses a :class:`RetryPolicy` ever retries.
TRANSIENT_STATUSES = ("crashed", "timeout")

#: Consecutive transient outcomes after which a :class:`Supervisor`
#: degrades the rest of its sweep to inline execution.
BREAKER_THRESHOLD = 5


def _execute(payload: Dict[str, Any]) -> RawResult:
    """Run one cell inline (lazy import breaks the engine<->executor cycle)."""
    from .engine import _execute_payload

    return _execute_payload(payload)


@dataclass(frozen=True)
class RetryPolicy:
    """When and how transient cell attempts are retried.

    ``max_attempts`` counts *total* attempts (1 = never retry).  The
    backoff before attempt ``n+1`` is ``backoff_s * backoff_factor**(n-1)``
    stretched by up to ``jitter`` relative, where the stretch is derived
    deterministically from ``(seed, key, n)`` via :func:`derive_seed` --
    never from wall clock or process state, so two runs of the same
    chaos-ridden sweep back off identically.
    """

    max_attempts: int = 1
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    retry_statuses: Tuple[str, ...] = TRANSIENT_STATUSES

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_s < 0 or self.backoff_factor < 1 or self.jitter < 0:
            raise ValueError("backoff_s >= 0, backoff_factor >= 1, jitter >= 0 required")
        bad = set(self.retry_statuses) - set(TRANSIENT_STATUSES)
        if bad:
            raise ValueError(
                f"retry_statuses may only contain transient outcomes "
                f"{TRANSIENT_STATUSES}, got {sorted(bad)}"
            )

    def should_retry(self, status: str, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) that ended in
        ``status`` earns another attempt.  Deterministic failures never do."""
        return status in self.retry_statuses and attempt < self.max_attempts

    def delay_s(self, key: str, attempt: int) -> float:
        """Deterministic backoff before the attempt after ``attempt``."""
        base = self.backoff_s * self.backoff_factor ** max(0, attempt - 1)
        unit = derive_seed(self.seed, "backoff", key, attempt) / 2**32  # [0, 1)
        return base * (1.0 + self.jitter * unit)


@dataclass
class SupervisionStats:
    """Orchestration counters for one supervised sweep (obs-exported)."""

    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    degraded: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Nonzero counters only, keyed the way the metrics registry
        names them (``sweep.<counter>``) minus the prefix."""
        out = {}
        for name in ("retries", "crashes", "timeouts", "degraded"):
            value = getattr(self, name)
            if value:
                out[name] = value
        return out


class Executor:
    """One way of running cell attempts; the supervisor drives it.

    The contract is submit/poll, not map: the supervisor must be able to
    feed retries back in as earlier attempts settle, and must never
    block on a worker that died -- which is exactly what a pool's
    ``imap`` cannot promise.
    """

    def free_slots(self) -> int:
        raise NotImplementedError

    def inflight(self) -> int:
        raise NotImplementedError

    def submit(self, payload: Dict[str, Any]) -> None:
        raise NotImplementedError

    def poll(self, timeout_s: float) -> List[RawResult]:
        """Attempts that settled; blocks at most ``timeout_s``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release workers; safe to call twice (and on a broken executor)."""


class SerialExecutor(Executor):
    """Run every attempt inline in the submitting process.

    The bit-exact reference path: no pickling, no processes, no
    supervision, and so no per-cell deadline.
    """

    def __init__(self) -> None:
        self._settled: List[RawResult] = []

    def free_slots(self) -> int:
        # One cell at a time, and not before the previous settled: keeps
        # progress callbacks firing per cell exactly like the historical
        # inline loop.
        return 0 if self._settled else 1

    def inflight(self) -> int:
        return len(self._settled)

    def submit(self, payload: Dict[str, Any]) -> None:
        self._settled.append(_execute(payload))

    def poll(self, timeout_s: float) -> List[RawResult]:
        settled, self._settled = self._settled, []
        return settled


class _Inflight:
    """Bookkeeping for one in-flight supervised attempt."""

    __slots__ = ("payload", "proc", "conn", "started", "deadline")

    def __init__(self, payload, proc, conn, started, deadline):
        self.payload = payload
        self.proc = proc
        self.conn = conn
        self.started = started
        self.deadline = deadline

    @property
    def key(self) -> str:
        return self.payload["key"]


def _child_main(conn, payload) -> None:  # pragma: no cover - runs in child
    """Worker entry point: run the cell, ship the raw result, exit.

    ``_execute_payload`` never raises (it is the isolation boundary), so
    anything escaping here is infrastructure breakage -- exit nonzero and
    let the parent classify the attempt as crashed.
    """
    try:
        raw = _execute(payload)
    except BaseException:
        os._exit(81)
    try:
        conn.send(raw)
        conn.close()
    except BaseException:
        os._exit(82)


class SupervisedProcessExecutor(Executor):
    """One child process per in-flight cell, each with a result pipe.

    Worker death is *observed*, never inferred: a child that exits
    without sending its result leaves its pipe readable at EOF, which
    :func:`multiprocessing.connection.wait` reports immediately -- the
    attempt settles as ``crashed`` carrying the exit code.  A child past
    its deadline is SIGKILLed and settles as ``timeout``.  Either way the
    sweep keeps going; there is no shared pool to break.
    """

    def __init__(
        self,
        max_workers: int,
        timeout_s: Optional[float] = None,
    ):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self._ctx = multiprocessing.get_context()
        self._max = max_workers
        self._timeout = timeout_s
        self._inflight: List[_Inflight] = []

    def free_slots(self) -> int:
        return max(0, self._max - len(self._inflight))

    def inflight(self) -> int:
        return len(self._inflight)

    def next_deadline_in(self, now: float) -> Optional[float]:
        """Seconds until the earliest in-flight deadline, if any."""
        deadlines = [i.deadline for i in self._inflight if i.deadline is not None]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - now)

    def submit(self, payload: Dict[str, Any]) -> None:
        if not self.free_slots():
            raise RuntimeError("no free worker slot; poll() before submitting")
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_child_main, args=(child_conn, payload), daemon=True,
            name=f"repro-sweep-{payload['key']}",
        )
        proc.start()
        child_conn.close()  # parent's copy; the child keeps its own end
        now = time.monotonic()
        deadline = None if self._timeout is None else now + self._timeout
        self._inflight.append(_Inflight(payload, proc, parent_conn, now, deadline))

    def _reap(self, inf: _Inflight, kill: bool = False) -> None:
        if kill and inf.proc.is_alive():
            inf.proc.kill()
        inf.proc.join(timeout=5.0)
        inf.conn.close()
        self._inflight.remove(inf)

    def _crashed(self, inf: _Inflight) -> RawResult:
        inf.proc.join(timeout=5.0)
        code = inf.proc.exitcode
        detail = {
            "error": (
                f"worker pid {inf.proc.pid} died without a result "
                f"(exitcode {code})"
            ),
            "traceback": None,
        }
        return (
            inf.key, "crashed", detail,
            time.monotonic() - inf.started, inf.proc.pid or 0, None,
        )

    def _timed_out(self, inf: _Inflight) -> RawResult:
        detail = {
            "error": (
                f"cell exceeded per-cell timeout {self._timeout:.3g}s; "
                f"worker pid {inf.proc.pid} killed"
            ),
            "traceback": None,
        }
        return (
            inf.key, "timeout", detail,
            time.monotonic() - inf.started, inf.proc.pid or 0, None,
        )

    def poll(self, timeout_s: float) -> List[RawResult]:
        settled: List[RawResult] = []
        if not self._inflight:
            return settled
        # Deadlines bound how long we may sleep; a hung worker must not
        # extend the wait of an already-expired sibling.
        now = time.monotonic()
        till_deadline = self.next_deadline_in(now)
        wait_s = timeout_s if till_deadline is None else min(timeout_s, till_deadline)
        ready = _mp_connection.wait([i.conn for i in self._inflight], timeout=wait_s)
        ready_set = set(ready)
        for inf in [i for i in self._inflight if i.conn in ready_set]:
            try:
                raw = inf.conn.recv()
            except (EOFError, OSError):  # died before/while sending
                raw = self._crashed(inf)
            except Exception:  # partial/garbled pickle from a dying worker
                raw = self._crashed(inf)
            self._reap(inf)
            settled.append(raw)
        now = time.monotonic()
        for inf in [i for i in self._inflight if i.deadline is not None and now >= i.deadline]:
            raw = self._timed_out(inf)
            self._reap(inf, kill=True)
            settled.append(raw)
        return settled

    def close(self) -> None:
        for inf in list(self._inflight):
            self._reap(inf, kill=True)


class Supervisor:
    """Drive an executor over a payload queue with retries and a breaker.

    :meth:`run` yields ``(raw_result, attempts)`` for every payload's
    *final* attempt, in completion order (the engine re-folds into spec
    order).  Transient attempts that earn a retry are re-queued with a
    deterministic backoff and never surface.  After
    ``breaker_threshold`` consecutive transient failures the supervisor
    degrades to inline serial execution for everything still queued
    (in-flight workers are drained normally) -- the sweep finishes,
    degraded but complete.

    The breaker's premise is that repeated crashes mean the *process
    infrastructure* is broken (fork failures, OOM killer, a poisoned
    interpreter), not the cells -- inline execution has no crash or
    timeout protection.  ``breaker_threshold=None`` disables it; chaos
    drills (:mod:`repro.faults.chaos`) run with the breaker disabled,
    because induced crashes are expected there and degrading inline
    would execute a crash cell in the supervisor process itself.
    """

    #: Upper bound on one poll() sleep: keeps the supervisor responsive
    #: to newly-due retries without busy-waiting.
    _POLL_SLICE_S = 0.2

    def __init__(
        self,
        executor: Executor,
        policy: Optional[RetryPolicy] = None,
        breaker_threshold: Optional[int] = BREAKER_THRESHOLD,
    ):
        if breaker_threshold is not None and breaker_threshold < 1:
            raise ValueError(f"breaker_threshold must be >= 1, got {breaker_threshold}")
        self.executor = executor
        self.policy = policy or RetryPolicy()
        self.breaker_threshold = breaker_threshold
        self.stats = SupervisionStats()
        self._consecutive_transient = 0
        self._degraded = False

    @property
    def degraded(self) -> bool:
        return self._degraded

    def _trip_breaker(self) -> None:
        self._degraded = True
        self.stats.degraded = 1
        logger.error(
            "sweep supervisor: %d consecutive worker crash/timeout outcomes; "
            "circuit breaker tripped -- degrading to inline serial execution "
            "for remaining cells",
            self._consecutive_transient,
        )

    def run(
        self, payloads: List[Dict[str, Any]], cancel: Optional[Any] = None
    ) -> Iterator[Tuple[RawResult, int]]:
        """Yield final attempts; ``cancel`` (event-like, ``is_set()``)
        stops new submissions and drops queued/delayed work -- in-flight
        attempts still drain, so nothing half-run is abandoned."""
        self._payloads_by_key = {p["key"]: p for p in payloads}
        ready = deque((payload, 1) for payload in payloads)
        delayed: List[Tuple[float, Dict[str, Any], int]] = []  # (due, payload, attempt)
        attempts_of: Dict[str, int] = {}

        while ready or delayed or self.executor.inflight():
            if cancel is not None and cancel.is_set():
                ready.clear()
                delayed.clear()
                if not self.executor.inflight():
                    break
            now = time.monotonic()
            if delayed:
                due = [e for e in delayed if e[0] <= now]
                for entry in due:
                    delayed.remove(entry)
                    ready.append((entry[1], entry[2]))
            while ready and (self._degraded or self.executor.free_slots()):
                payload, attempt = ready.popleft()
                attempts_of[payload["key"]] = attempt
                if self._degraded:
                    yield from self._settle(_execute(payload), attempt, delayed)
                else:
                    self.executor.submit(payload)
            if not self.executor.inflight() and not ready:
                if delayed:  # nothing to poll; sleep until the next retry is due
                    pause = min(e[0] for e in delayed) - time.monotonic()
                    if pause > 0:
                        time.sleep(min(pause, self._POLL_SLICE_S))
                continue
            for raw in self.executor.poll(self._POLL_SLICE_S):
                yield from self._settle(raw, attempts_of[raw[0]], delayed)

    def _settle(
        self,
        raw: RawResult,
        attempt: int,
        delayed: List[Tuple[float, Dict[str, Any], int]],
    ) -> Iterator[Tuple[RawResult, int]]:
        key, status = raw[0], raw[1]
        if status in TRANSIENT_STATUSES:
            if status == "crashed":
                self.stats.crashes += 1
            else:
                self.stats.timeouts += 1
            self._consecutive_transient += 1
            if (
                not self._degraded
                and self.breaker_threshold is not None
                and self._consecutive_transient >= self.breaker_threshold
            ):
                self._trip_breaker()
            if self.policy.should_retry(status, attempt):
                self.stats.retries += 1
                delay = self.policy.delay_s(key, attempt)
                payload = self._payload_for(key)
                logger.warning(
                    "sweep cell %s attempt %d ended %s (%s); retrying in %.3fs "
                    "(attempt %d/%d)",
                    key, attempt, status, raw[2]["error"], delay,
                    attempt + 1, self.policy.max_attempts,
                )
                delayed.append((time.monotonic() + delay, payload, attempt + 1))
                return
        else:
            self._consecutive_transient = 0
        yield raw, attempt

    def _payload_for(self, key: str) -> Dict[str, Any]:
        payload = self._payloads_by_key.get(key)
        if payload is None:  # pragma: no cover - run() always registers first
            raise KeyError(f"no payload registered for cell {key!r}")
        return payload
