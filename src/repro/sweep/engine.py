"""Supervised parallel sweep execution with caching and fault isolation.

:func:`run_sweep` executes every cell of a :class:`~repro.sweep.spec
.SweepSpec` and returns a :class:`SweepResult` whose cells are always in
**spec order**, whatever order execution finished them in -- aggregation
code downstream can therefore fold results exactly the way the old
serial loops did, which is what makes ``--workers N`` bit-identical to
``--workers 1``.

Execution model (see :mod:`repro.sweep.executors` for the machinery):

* the ``serial`` executor runs every cell inline in this process (no
  pool, no pickling) -- the reference path, picked automatically for
  ``workers == 1``;
* the ``supervised`` executor runs one child process per in-flight cell
  and *watches* it: a worker that dies (OOM, SIGKILL, ``os._exit``)
  settles its cell as ``crashed``, a worker past the per-cell
  ``SweepOptions.timeout`` is killed and settles as ``timeout`` --
  neither hangs or unwinds the sweep;
* transient outcomes (``crashed``/``timeout``) are retried up to
  ``SweepOptions.retries`` extra attempts with deterministic
  exponential backoff;
  deterministic failures (a cell that *raises*) become a structured
  ``failed`` :class:`SweepCellResult` carrying ``error`` and
  ``traceback`` strings and are never retried;
* after ``SweepOptions.breaker_threshold`` consecutive transient
  failures a circuit breaker degrades the sweep to inline serial
  execution (logged, and counted as ``sweep.degraded``);
* with a cache directory, finished cells are pickled content-addressed
  (:mod:`repro.runtime.cellcache`); ``resume=True`` serves hits from
  disk, so restarting a killed sweep only recomputes missing cells.

Chaos drills: a :class:`repro.faults.chaos.ChaosConfig` (programmatic
via ``SweepOptions.chaos`` or ambient via ``REPRO_SWEEP_CHAOS``) wraps
execution payloads so cells misbehave on their first attempts; cache
hashing still sees the clean payloads, and retried values are identical
to a clean run's -- the determinism-under-retry contract the chaos test
suite pins.
"""

from __future__ import annotations

import logging
import os
import pickle
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..obs import metrics as obs_metrics
from ..obs import state as obs_state
from ..obs import tracer as obs_tracer
from ..runtime.cellcache import CellCache
from ..runtime.checks import check_level, get_check_level
from .executors import RetryPolicy, Supervisor, make_executor, resolve_executor_name
from .options import SweepOptions
from .spec import SweepSpec, derive_seed, resolve_fn

__all__ = [
    "SweepCancelled",
    "SweepCellResult",
    "SweepCellsFailed",
    "SweepError",
    "SweepResult",
    "configured_workers",
    "default_workers",
    "run_sweep",
]

logger = logging.getLogger("repro.sweep")

#: Every status a settled cell can carry.  ``cached`` is decided before
#: submission; ``ok``/``failed`` come from inside the cell body;
#: ``crashed``/``timeout`` are synthesized by the supervising executor
#: for attempts whose worker died or overran the per-cell deadline.
CELL_STATUSES = ("ok", "cached", "failed", "crashed", "timeout")


class SweepError(RuntimeError):
    """Engine-level failure (misuse or, under ``strict=True``, failed cells)."""


class SweepCellsFailed(SweepError):
    """One or more cells ended in a terminal non-ok status.

    Distinct from plain :class:`SweepError` (misuse: bad worker counts,
    unknown executors) so callers -- the CLI in particular -- can map
    *cell outcomes* to their own exit code instead of conflating them
    with usage errors.  ``failures`` carries the failed
    :class:`SweepCellResult` rows; ``result`` the full
    :class:`SweepResult` when the sweep ran to completion (``None`` when
    raised from :meth:`SweepResult.value` during aggregation).
    """

    def __init__(self, message: str, failures=(), result=None):
        super().__init__(message)
        self.failures = list(failures)
        self.result = result


class SweepCancelled(SweepError):
    """The sweep was interrupted by its cancellation token.

    Already-settled cells were cached (when a cache is configured), so a
    later run with ``resume=True`` continues where this one stopped --
    the exception is a checkpoint marker, not a loss of work.  ``done``
    and ``total`` count settled vs. requested cells; ``pending_keys``
    names the cells that never ran.
    """

    def __init__(self, spec_name: str, done: int, total: int, pending_keys=()):
        super().__init__(
            f"sweep {spec_name!r} cancelled after {done}/{total} cell(s)"
        )
        self.spec_name = spec_name
        self.done = done
        self.total = total
        self.pending_keys = list(pending_keys)


def default_workers() -> int:
    """Worker count to use when the caller does not say.

    Honours ``REPRO_SWEEP_WORKERS`` (how the benchmark harness and CI
    select parallelism without threading a flag through every driver),
    else falls back to the machine's CPU count.
    """
    env = _env_workers()
    if env is not None:
        return env
    return max(1, os.cpu_count() or 1)


def _env_workers() -> Optional[int]:
    env = os.environ.get("REPRO_SWEEP_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            logger.warning("ignoring malformed REPRO_SWEEP_WORKERS=%r", env)
    return None


def configured_workers(explicit: Optional[int] = None) -> int:
    """Resolve a driver's ``workers`` parameter to a concrete count.

    Precedence: an explicit argument, then ``REPRO_SWEEP_WORKERS``, then
    1 (serial) -- drivers stay bit-exactly serial unless somebody opted
    into parallelism.
    """
    if explicit is not None:
        if explicit < 1:
            raise SweepError(f"workers must be >= 1, got {explicit}")
        return int(explicit)
    return _env_workers() or 1


@dataclass
class SweepCellResult:
    """Outcome of one sweep cell (ok, cached, failed, crashed, or timeout)."""

    key: str
    status: str  #: one of :data:`CELL_STATUSES`
    value: Any = None
    error: Optional[str] = None  #: "ExcType: message" / supervisor diagnosis
    traceback: Optional[str] = None  #: formatted traceback (``failed`` only)
    elapsed_s: float = 0.0
    worker: Optional[int] = None  #: pid of the process that ran the cell
    #: Deterministic observability payload of this cell's execution
    #: (``repro.obs.metrics`` ``to_dict(deterministic_only=True)``),
    #: present only when observability was enabled at submit time.  The
    #: cell body runs against a fresh registry (and a cleared block-cost
    #: memo), so the payload is identical whichever worker ran it --
    #: failed cells keep theirs as forensics.  Cached cells have None.
    metrics: Optional[Dict[str, Any]] = None
    #: Execution attempts this cell took (1 for a clean run, more after
    #: crash/timeout retries, 0 when served from cache).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class SweepResult:
    """All cells of one sweep, in spec order, plus run metadata."""

    spec_name: str
    workers: int
    cells: List[SweepCellResult] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Nonzero supervision counters of the run (``retries``, ``crashes``,
    #: ``timeouts``, ``degraded``); empty for clean sweeps.
    supervision: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> List[SweepCellResult]:
        return [cell for cell in self.cells if not cell.ok]

    def value(self, key: str) -> Any:
        for cell in self.cells:
            if cell.key == key:
                if not cell.ok:
                    raise SweepCellsFailed(
                        f"cell {key!r} failed: {cell.error}", failures=[cell]
                    )
                return cell.value
        raise KeyError(f"no cell {key!r} in sweep {self.spec_name!r}")

    def values(self) -> Dict[str, Any]:
        """``{key: value}`` over the cells that succeeded."""
        return {cell.key: cell.value for cell in self.cells if cell.ok}

    def summary(self) -> str:
        ok = sum(1 for c in self.cells if c.status == "ok")
        cached = sum(1 for c in self.cells if c.status == "cached")
        failed = len(self.failures)
        base = (
            f"{len(self.cells)} cells ({ok} computed, {cached} from cache, "
            f"{failed} failed) in {self.elapsed_s:.2f} s with {self.workers} worker(s)"
        )
        if self.supervision:
            bits = ", ".join(f"{v} {k}" for k, v in sorted(self.supervision.items()))
            base += f" [{bits}]"
        return base

    def metrics(self) -> Optional[Dict[str, Any]]:
        """Merged deterministic metrics of the whole sweep, or None.

        Folds every cell's payload in **spec order** (the merge is
        order-insensitive anyway; spec order makes the identity obvious)
        and adds the orchestration counters ``sweep.cells_{status}``
        plus the supervision counters (``sweep.retries`` ...) -- so the
        dict is byte-identical between ``--workers 1`` and ``--workers
        N`` (supervision counts depend only on the cells and the chaos
        configuration, never on worker assignment).
        """
        payloads = [c.metrics for c in self.cells if c.metrics is not None]
        if not payloads and not obs_state.enabled():
            return None
        reg = obs_metrics.MetricsRegistry.merged(payloads)
        for status in CELL_STATUSES:
            n = sum(1 for c in self.cells if c.status == status)
            if n:
                reg.counter_add(f"sweep.cells_{status}", n)
        for name, value in self.supervision.items():
            reg.counter_add(f"sweep.{name}", value)
        return reg.to_dict(deterministic_only=True)


class _ObsCellScope:
    """Isolated observability collection for one sweep cell.

    Installs a fresh metrics registry and trace buffer (and empties
    every in-process memo, whose warmth is process-history-dependent),
    enables obs, and wraps the cell in a ``sweep.cell.<key>`` span.
    ``close()`` exports the cell's deterministic metrics plus its trace
    events and restores the previous sinks -- the same code runs inline
    and in workers, which is what makes serial and parallel metrics
    identical.
    """

    def __init__(self, key: str):
        self._key = key

    def open(self) -> None:
        from ..sim.engine import clear_cost_memo

        clear_cost_memo()
        self._prev_registry = obs_metrics.swap_registry()
        self._prev_buffer = obs_tracer.swap_buffer()
        self._was_enabled = obs_state.enabled()
        obs_state.enable()
        self._span = obs_tracer.span(f"sweep.cell.{self._key}")
        self._span.__enter__()

    def close(self) -> Dict[str, Any]:
        self._span.__exit__(None, None, None)
        exported = {
            "metrics": obs_metrics.registry().to_dict(deterministic_only=True),
            "events": obs_tracer.events(),
        }
        if not self._was_enabled:
            obs_state.disable()
        obs_metrics.swap_registry(self._prev_registry)
        obs_tracer.swap_buffer(self._prev_buffer)
        return exported


def _execute_payload(
    payload: Dict[str, Any],
) -> Tuple[str, str, Any, float, int, Optional[Dict[str, Any]]]:
    """Run one cell body; never raises (the isolation boundary).

    Returns ``(key, status, value_or_error, elapsed_s, pid, obs)`` where
    a failed cell's third slot is ``{"error": ..., "traceback": ...}``
    and ``obs`` (when the submitting process had observability on) is
    ``{"metrics": ..., "events": [...]}``.  Runs in a worker process
    under the supervised executor and inline under the serial one -- one
    code path, so both modes compute the same thing.  Obs enablement
    travels in the payload (like ``check_level``) rather than relying on
    fork inheritance, so spawn-based contexts behave identically.

    Cells carrying an ambient ``seed`` run against a *seeded* global
    numpy RNG, but the caller's RNG state is saved and restored around
    the cell body -- inline sweeps must not perturb ambient randomness.
    """
    key = payload["key"]
    start = time.perf_counter()
    obs_export: Optional[Dict[str, Any]] = None
    rng_state = None
    try:
        fn = resolve_fn(payload["fn"])
        if payload.get("seed") is not None:
            import numpy as np

            rng_state = np.random.get_state()
            np.random.seed(payload["seed"] & 0xFFFFFFFF)
        scope = None
        if payload.get("obs"):
            scope = _ObsCellScope(key)
            scope.open()
        try:
            with check_level(payload.get("check_level", "off")):
                value = fn(**payload["kwargs"])
            pickle.dumps(value)  # fail *inside* the isolation boundary, not in the pool
        finally:
            if scope is not None:
                obs_export = scope.close()
    except KeyboardInterrupt:  # a user abort must propagate, not settle the cell
        raise
    except BaseException as exc:  # noqa: BLE001 - cell isolation is the point
        detail = {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
        return key, "failed", detail, time.perf_counter() - start, os.getpid(), obs_export
    finally:
        if rng_state is not None:
            import numpy as np

            np.random.set_state(rng_state)
    return key, "ok", value, time.perf_counter() - start, os.getpid(), obs_export


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    resume: bool = False,
    strict: bool = False,
    options: Optional[SweepOptions] = None,
) -> SweepResult:
    """Execute every cell of ``spec`` and return results in spec order.

    ``strict=True`` raises :class:`SweepCellsFailed` after the sweep
    completes if any cell failed (the sweep itself still runs to the
    end).

    ``options`` (a :class:`~repro.sweep.options.SweepOptions`, validated
    on construction) is the one source of the supervision settings:
    executor, per-cell timeout, retries, backoff, circuit breaker,
    chaos, and the ``progress``/``cancel`` hooks.  ``progress`` is called
    as each cell settles, with the cell result plus ``(done, total)``
    counts -- in *completion* order, which under parallelism is
    nondeterministic; only the returned :class:`SweepResult` ordering is
    stable.  Once ``cancel.is_set()``, no further cells are submitted,
    in-flight cells drain into the cache, and the call raises
    :class:`SweepCancelled`; a later run with the same cache and
    ``resume=True`` continues from the settled cells.
    """
    opts = options if options is not None else SweepOptions()
    progress = opts.progress
    cancel = opts.cancel

    if workers < 1:
        raise SweepError(f"workers must be >= 1, got {workers}")

    chaos = opts.chaos
    if chaos is None:
        from ..faults.chaos import chaos_from_env

        chaos = chaos_from_env()

    cache = CellCache(cache_dir) if cache_dir else None
    ambient_level = get_check_level()
    start = time.perf_counter()
    total = len(spec.cells)
    cells_by_key = {cell.key: cell for cell in spec.cells}
    by_key: Dict[str, SweepCellResult] = {}
    done = 0

    def settle(result: SweepCellResult) -> None:
        nonlocal done
        done += 1
        by_key[result.key] = result
        if not result.ok:
            logger.error(
                "sweep %s: cell %s %s after %.2f s (%d attempt(s)): %s",
                spec.name, result.key, result.status, result.elapsed_s,
                result.attempts, result.error,
            )
        if progress is not None:
            progress(result, done, total)

    pending: List[Dict[str, Any]] = []
    for cell in spec.cells:
        path = cache.path(cell.key, cell.payload()) if cache is not None else None
        if resume and cache is not None:
            hit, value = cache.read_hit(path)
            if hit:
                settle(SweepCellResult(cell.key, "cached", value=value, attempts=0))
                continue
        pending.append(
            {
                "key": cell.key,
                "fn": cell.fn,
                "kwargs": cell.kwargs,
                "seed": cell.seed,
                "check_level": ambient_level,
                "obs": obs_state.enabled(),
            }
        )

    def finish(
        raw: Tuple[str, str, Any, float, int, Optional[Dict[str, Any]]],
        attempts: int = 1,
    ) -> None:
        key, status, value, elapsed, pid, obs_export = raw
        cell_metrics = None
        if obs_export is not None:
            cell_metrics = obs_export["metrics"]
            # Trace events keep their worker pid/clock, so ingesting in
            # completion order is safe (per-track monotonicity holds).
            obs_tracer.ingest(obs_export["events"])
        if status != "ok":
            settle(
                SweepCellResult(
                    key, status, error=value["error"], traceback=value["traceback"],
                    elapsed_s=elapsed, worker=pid, metrics=cell_metrics,
                    attempts=attempts,
                )
            )
            return
        if cache is not None:
            cell = cells_by_key[key]
            cache.write(cache.path(key, cell.payload()), value)
        settle(
            SweepCellResult(
                key, "ok", value=value, elapsed_s=elapsed, worker=pid,
                metrics=cell_metrics, attempts=attempts,
            )
        )

    supervision: Dict[str, int] = {}
    if pending:
        n_workers = min(max(1, workers), len(pending))
        exec_name = resolve_executor_name(
            opts.executor, workers, force_supervised=chaos is not None
        )
        if chaos is not None:
            from ..faults import chaos as chaos_mod

            ledger_dir = chaos.ledger_dir or tempfile.mkdtemp(prefix="repro-chaos-")
            logger.warning(
                "sweep %s: chaos injection active (%s, first_n=%d, ledger %s)",
                spec.name, "+".join(chaos.modes), chaos.first_n, ledger_dir,
            )
            pending = [chaos_mod.wrap_payload(p, chaos, ledger_dir) for p in pending]
        policy = RetryPolicy(
            max_attempts=opts.retries + 1,
            backoff_s=opts.backoff_s,
            seed=derive_seed(0, "sweep-backoff", spec.name),
        )
        exec_obj = make_executor(exec_name, n_workers, timeout_s=opts.timeout)
        # Chaos drills disable the circuit breaker: induced crashes are
        # expected there, and degrading to inline execution would run a
        # crash cell inside the supervisor process itself.
        supervisor = Supervisor(
            exec_obj, policy,
            breaker_threshold=None if chaos is not None else opts.breaker_threshold,
        )
        try:
            for raw, attempts in supervisor.run(pending, cancel=cancel):
                finish(raw, attempts)
        finally:
            exec_obj.close()
        supervision = supervisor.stats.as_dict()

    pending_keys = [p["key"] for p in pending if p["key"] not in by_key]
    if pending_keys:
        if cancel is not None and cancel.is_set():
            # A set cancellation token legitimately leaves cells
            # unsettled; the settled ones are already cached, so this is
            # a resumable stop.
            logger.warning(
                "sweep %s: cancelled with %d/%d cell(s) settled",
                spec.name, done, total,
            )
            raise SweepCancelled(spec.name, done, total, pending_keys)
        # No cancellation, yet cells vanished without settling: that is
        # a supervisor bug, not a resumable stop -- report it as one.
        raise SweepError(
            f"sweep {spec.name!r}: {len(pending_keys)} cell(s) never settled "
            f"({done}/{total} done): " + ", ".join(pending_keys[:5])
        )

    ordered = [by_key[cell.key] for cell in spec.cells]
    if obs_state.enabled():
        # Fold cell metrics into the ambient registry in spec order (and
        # count orchestration outcomes), so `repro report --metrics`
        # can export one registry for a whole experiment.
        for cell_result in ordered:
            if cell_result.metrics is not None:
                obs_metrics.merge_payload(cell_result.metrics)
            obs_metrics.counter_add(f"sweep.cells_{cell_result.status}")
        for name, value in supervision.items():
            obs_metrics.counter_add(f"sweep.{name}", value)
    result = SweepResult(
        spec_name=spec.name,
        workers=workers,
        cells=ordered,
        elapsed_s=time.perf_counter() - start,
        supervision=supervision,
    )
    if strict and not result.ok:
        raise SweepCellsFailed(
            f"sweep {spec.name!r}: {len(result.failures)} cell(s) failed: "
            + ", ".join(c.key for c in result.failures),
            failures=result.failures,
            result=result,
        )
    return result
