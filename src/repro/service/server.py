"""The durable simulation service: HTTP front end + recovery-first workers.

``repro serve`` (see :mod:`repro.cli`) builds a :class:`SimService`
from a :class:`ServiceConfig` and runs it until SIGTERM/SIGINT.  All
state that matters lives *outside* the process: jobs in the SQLite
:class:`~repro.service.store.RunStore`, finished cells in the shared
content-addressed cell cache.  The process itself is disposable --
that is the design, not an accident:

* **startup recovery** -- any job found ``running`` in the store was
  orphaned by a dead predecessor; it is reclaimed to ``queued`` and
  re-enqueued on the priority lane.  Because every settled cell was
  cached before the crash, the re-run replays cached cells and only
  computes the remainder (``service.jobs_recovered``);
* **idempotent submission** -- the run id is a content hash of the
  canonicalized payload, so a client that resubmits after a timeout
  gets the original job (``deduped: true``) instead of a duplicate;
* **admission control** -- per-client token buckets and a bounded queue
  turn overload into HTTP 429 + ``Retry-After`` instead of an unbounded
  backlog (``service.jobs_rejected``);
* **graceful drain** -- SIGTERM stops admissions (503), sets every
  running job's cancellation token so its sweep stops submitting new
  cells and drains in-flight ones into the cache, then marks those jobs
  ``queued`` again (resumable) before the process exits.

Endpoints (all JSON unless noted)::

    POST /jobs              submit a job; 202 accepted / 200 deduped /
                            429 shed (Retry-After) / 503 draining
    GET  /jobs              job summaries
    GET  /jobs/<id>         job detail + per-cell progress
    GET  /jobs/<id>/result  the result JSON exactly as stored (byte-
                            identical to ``repro report <exp> --json``)
    POST /jobs/<id>/cancel  cancel a queued or running job
    GET  /healthz           liveness + state counts
    GET  /metrics           service counters (+ obs registry when on)

Job payloads name either a paper experiment (``{"experiment":
"table1", "seeds": [0], "epochs": 2, "scale": 4}``) or a raw sweep
spec (``{"spec": {"name": ..., "cells": [{"key", "fn", "kwargs",
"seed"}, ...]}}``).  Spec cells resolve their callables by import path;
only prefixes in ``ServiceConfig.allow_fn_prefixes`` (default
``repro.``) are accepted, so a network peer cannot point a job at
arbitrary code.  Cell keys become cache *filenames*, so they must be
relative paths of plain components (no ``..``, no leading ``/``) -- a
peer cannot use a key to write outside the service data directory.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..obs import metrics as obs_metrics
from ..obs import state as obs_state
from ..sweep import SweepCancelled, SweepCell, SweepOptions, SweepSpec
from .queue import AdmissionQueue, QueueFull, RateLimited
from .store import RunStore, StoreError

__all__ = ["ServiceConfig", "SimService", "normalize_payload"]

logger = logging.getLogger("repro.service")

#: Counters the service tracks in memory (reset on restart; durable
#: facts -- how many jobs exist in each state -- come from the store).
_COUNTERS = (
    "jobs_submitted",
    "jobs_deduped",
    "jobs_rejected",
    "jobs_recovered",
    "jobs_completed",
    "jobs_failed",
    "jobs_cancelled",
    "jobs_requeued",
)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` can tune, in one frozen value."""

    data_dir: str
    host: str = "127.0.0.1"
    port: int = 8765  #: 0 picks a free port (written to ``<data_dir>/endpoint``)
    job_workers: int = 1  #: concurrent jobs (threads popping the queue)
    sweep_workers: Optional[int] = None  #: per-job cell parallelism
    queue_size: int = 64
    rate: Optional[float] = 10.0  #: per-client submissions/s (None = off)
    burst: Optional[float] = 20.0
    timeout: Optional[float] = None  #: per-cell deadline (runs cells supervised)
    retries: int = 0
    drain_timeout_s: float = 30.0
    allow_fn_prefixes: Tuple[str, ...] = ("repro.",)

    def __post_init__(self) -> None:
        if self.job_workers < 1:
            raise ValueError(f"job_workers must be >= 1, got {self.job_workers}")
        if self.sweep_workers is not None and self.sweep_workers < 1:
            raise ValueError(f"sweep_workers must be >= 1, got {self.sweep_workers}")
        if self.queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {self.queue_size}")
        if self.drain_timeout_s <= 0:
            raise ValueError(
                f"drain_timeout_s must be > 0, got {self.drain_timeout_s}"
            )
        # Build what every job and the service build from these values,
        # so a value that would fail each job fails here, before the bind.
        self.sweep_options()
        AdmissionQueue(maxsize=self.queue_size, rate=self.rate, burst=self.burst)

    def sweep_options(self, **hooks: Any) -> SweepOptions:
        """The supervision options each job's sweep runs with."""
        return SweepOptions(timeout=self.timeout, retries=self.retries, **hooks)


def _experiment_names() -> Tuple[str, ...]:
    from ..cli import _EXPERIMENTS  # light module; kept in sync with analysis

    return _EXPERIMENTS


def normalize_payload(
    raw: Dict[str, Any], allow_fn_prefixes: Tuple[str, ...] = ("repro.",)
) -> Dict[str, Any]:
    """Validate a submitted job body and return its canonical payload.

    The canonical payload is what :func:`~repro.service.store.job_run_id`
    hashes, so normalization is what makes submission idempotent:
    defaults are filled in explicitly (``{"experiment": "fig17"}`` and
    ``{"experiment": "fig17", "seeds": [0]}`` hash identically) and
    non-identity knobs (``cached_only``, client hints) are stripped.
    Raises ``ValueError`` with a client-presentable message.
    """
    if not isinstance(raw, dict):
        raise ValueError("job payload must be a JSON object")
    if ("experiment" in raw) == ("spec" in raw):
        raise ValueError("job payload needs exactly one of 'experiment' or 'spec'")

    if "experiment" in raw:
        name = raw["experiment"]
        if name not in _experiment_names():
            raise ValueError(f"unknown experiment {name!r}")
        seeds = raw.get("seeds", [0])
        if not isinstance(seeds, list) or not seeds or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in seeds
        ):
            raise ValueError("'seeds' must be a non-empty list of integers")
        epochs = raw.get("epochs", 8)
        scale = raw.get("scale", 4)
        for label, value in (("epochs", epochs), ("scale", scale)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"'{label}' must be an integer >= 1")
        return {
            "kind": "experiment",
            "name": name,
            "seeds": list(seeds),
            "epochs": epochs,
            "scale": scale,
        }

    spec = raw["spec"]
    if not isinstance(spec, dict) or not isinstance(spec.get("name"), str):
        raise ValueError("'spec' must be an object with a string 'name'")
    cells = spec.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError("'spec.cells' must be a non-empty list")
    seen = set()
    canonical_cells = []
    for i, cell in enumerate(cells):
        if not isinstance(cell, dict):
            raise ValueError(f"spec cell #{i} must be an object")
        key, fn = cell.get("key"), cell.get("fn")
        if not isinstance(key, str) or not key:
            raise ValueError(f"spec cell #{i} needs a string 'key'")
        # Keys become cache *filenames* ("/" nests subdirectories), so a
        # traversal key like "../../etc/x" would make the service write
        # pickles outside its data dir.  Permit only relative paths of
        # plain components.
        if (
            "\\" in key
            or "\x00" in key
            or any(part in ("", ".", "..") for part in key.split("/"))
        ):
            raise ValueError(
                f"spec cell key {key!r} must be a relative path of "
                "non-empty components without '.' or '..'"
            )
        if key in seen:
            raise ValueError(f"duplicate spec cell key {key!r}")
        seen.add(key)
        if not isinstance(fn, str) or not any(
            fn.startswith(prefix) for prefix in allow_fn_prefixes
        ):
            raise ValueError(
                f"spec cell {key!r}: fn must be a 'module:qualname' string "
                f"under one of the allowed prefixes {list(allow_fn_prefixes)}"
            )
        kwargs = cell.get("kwargs", {})
        if not isinstance(kwargs, dict):
            raise ValueError(f"spec cell {key!r}: 'kwargs' must be an object")
        seed = cell.get("seed")
        if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
            raise ValueError(f"spec cell {key!r}: 'seed' must be an integer or null")
        canonical_cells.append(
            {"key": key, "fn": fn, "kwargs": kwargs, "seed": seed}
        )
    return {"kind": "spec", "name": spec["name"], "cells": canonical_cells}


def result_json(value: Any) -> str:
    """Canonical result serialization.

    Byte-for-byte the string ``repro report <experiment> --json`` prints
    (minus the trailing newline) -- the crash-recovery invariant is
    asserted by ``cmp``-ing this against a clean serial run's output.
    """
    from ..cli import _json_default

    return json.dumps(value, sort_keys=True, default=_json_default)


class _CancelToken:
    """Per-job cancellation handle shared with the sweep engine."""

    def __init__(self) -> None:
        self._event = threading.Event()

    def set(self) -> None:
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()


class SimService:
    """The job service: store + queue + worker threads + HTTP server."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.data_dir = Path(config.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.cells_dir = self.data_dir / "cells"
        self.store = RunStore(self.data_dir / "runs.sqlite3")
        self.queue = AdmissionQueue(
            maxsize=config.queue_size, rate=config.rate, burst=config.burst
        )
        self.counters: Dict[str, int] = {name: 0 for name in _COUNTERS}
        self._counter_lock = threading.Lock()
        self._admit_lock = threading.Lock()
        self._cancels: Dict[str, _CancelToken] = {}
        self._cancel_lock = threading.Lock()
        self._draining = False
        self._stop = threading.Event()
        self._workers: List[threading.Thread] = []
        self._httpd: Optional[ThreadingHTTPServer] = None
        self.started_at = time.time()

    # -- counters -----------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        with self._counter_lock:
            self.counters[name] += value
        if obs_state.enabled():
            obs_metrics.counter_add(f"service.{name}", value)

    # -- lifecycle ----------------------------------------------------------

    def recover(self) -> List[str]:
        """Reclaim orphaned ``running`` jobs and re-enqueue all queued work.

        Runs once before the server accepts traffic.  Reclaimed jobs
        (and previously queued ones flagged priority) ride the priority
        lane: their settled cells are already in the cell cache, so they
        finish near-free and ahead of fresh submissions.
        """
        reclaimed = self.store.reclaim_running()
        for run_id in reclaimed:
            logger.warning("recovery: reclaimed running job %s -> queued", run_id)
        for job in self.store.jobs(state="queued"):
            self.queue.push(job["run_id"], priority=job["priority"], force=True)
        if reclaimed:
            self._count("jobs_recovered", len(reclaimed))
        return reclaimed

    def start(self) -> Tuple[str, int]:
        """Recover, spawn workers, bind the HTTP server; returns (host, port)."""
        self.recover()
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        for i in range(self.config.job_workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-service-worker-{i}", daemon=True
            )
            thread.start()
            self._workers.append(thread)
        host, port = self._httpd.server_address[:2]
        endpoint = f"http://{host}:{port}"
        (self.data_dir / "endpoint").write_text(endpoint + "\n")
        logger.info("simulation service listening on %s", endpoint)
        return str(host), int(port)

    def serve_forever(self) -> None:
        assert self._httpd is not None, "call start() first"
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._httpd.server_close()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain (main thread only)."""

        def _handler(signum, frame):  # pragma: no cover - signal path
            logger.warning("signal %s: draining service", signum)
            threading.Thread(target=self.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    def shutdown(self) -> None:
        """Drain: refuse new work, stop sweeps resumably, stop the server.

        Running jobs get their cancellation token set; the sweep engine
        stops submitting cells, drains in-flight ones into the cell
        cache, and raises -- the worker thread then marks the job
        ``queued`` (resumable) because we are draining, not cancelling.
        """
        self._draining = True
        with self._cancel_lock:
            for token in self._cancels.values():
                token.set()
        self._stop.set()
        deadline = time.monotonic() + self.config.drain_timeout_s
        for thread in self._workers:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))
        if self._httpd is not None:
            self._httpd.shutdown()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- submission (HTTP POST /jobs) ---------------------------------------

    @staticmethod
    def _shed(exc: Exception) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """429 response for a structured rejection carrying ``retry_after_s``."""
        retry_after_s = getattr(exc, "retry_after_s", 1.0)
        return (
            429,
            {"error": str(exc), "retry_after_s": retry_after_s},
            {"Retry-After": str(max(1, int(retry_after_s + 0.999)))},
        )

    def submit(
        self, raw: Dict[str, Any], client: str, rate_key: Optional[str] = None
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Admission pipeline; returns ``(http_status, body, headers)``.

        ``client`` is an advisory label recorded on the job row (the
        ``X-Client`` header when present); ``rate_key`` is the identity
        rate limiting charges -- the HTTP layer passes the peer's remote
        address, which a client cannot rotate the way it can a header.
        """
        if self._draining:
            return 503, {"error": "service is draining"}, {"Retry-After": "5"}
        try:
            self.queue.check_rate(rate_key if rate_key is not None else client)
        except RateLimited as exc:
            self._count("jobs_rejected")
            return self._shed(exc)
        cached_only = bool(raw.get("cached_only", False)) if isinstance(raw, dict) else False
        try:
            payload = normalize_payload(
                {k: v for k, v in raw.items() if k != "cached_only"}
                if isinstance(raw, dict) else raw,
                self.config.allow_fn_prefixes,
            )
        except ValueError as exc:
            return 400, {"error": str(exc)}, {}

        with self._admit_lock:
            # Peek whether this payload dedupes before charging queue
            # capacity: repeat submissions of queued/running/done jobs
            # must stay near-free even when the queue is full.
            from .store import job_run_id

            existing = self.store.job(job_run_id(payload))
            is_fresh = existing is None or existing["state"] in ("failed", "cancelled")
            if is_fresh:
                try:
                    self.queue.check_capacity()
                except QueueFull as exc:
                    self._count("jobs_rejected")
                    return self._shed(exc)
            run_id, is_new, state = self.store.submit(
                payload, client=client, priority=cached_only
            )
            if is_new:
                if existing is not None:
                    self.store.clear_cells(run_id)
                    self._count("jobs_requeued")
                self.queue.push(run_id, priority=cached_only, force=True)
                self._count("jobs_submitted")
                return (
                    202,
                    {"run_id": run_id, "state": "queued", "deduped": False},
                    {},
                )
        self._count("jobs_deduped")
        return 200, {"run_id": run_id, "state": state, "deduped": True}, {}

    # -- cancellation -------------------------------------------------------

    def cancel(self, run_id: str) -> Tuple[int, Dict[str, Any]]:
        job = self.store.job(run_id)
        if job is None:
            return 404, {"error": f"unknown run id {run_id!r}"}
        state = job["state"]
        if state == "queued":
            self.queue.drop(run_id)
            try:
                self.store.transition(run_id, "cancelled")
            except StoreError:
                # Lost the CAS: a worker claimed the job (or it settled)
                # between our read and the transition.  Re-read instead
                # of assuming where it went.
                job = self.store.job(run_id)
                if job is not None:
                    state = job["state"]
            else:
                self._count("jobs_cancelled")
                return 200, {"run_id": run_id, "state": "cancelled"}
        if state == "running":
            # Workers register the token *before* their queued->running
            # CAS, so every running job has one; a missing token means
            # the job settled since our read -- re-read and report the
            # terminal state rather than a phantom "cancelling".
            with self._cancel_lock:
                token = self._cancels.get(run_id)
            if token is not None:
                token.set()
                return 202, {"run_id": run_id, "state": "cancelling"}
            job = self.store.job(run_id)
            if job is not None:
                state = job["state"]
        return 409, {"error": f"job {run_id} already {state}"}

    # -- execution ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            run_id = self.queue.pop(timeout=0.2)
            if run_id is None:
                continue
            if self._draining:
                continue  # leave it queued in the store; recovery re-runs it
            job = self.store.job(run_id)
            if job is None or job["state"] != "queued":
                continue
            # Register the cancel token *before* the queued->running
            # CAS: a cancel() that loses its own queued->cancelled CAS
            # to us must find a token to set, or the job would run to
            # completion while the client was told "cancelling".
            token = _CancelToken()
            with self._cancel_lock:
                self._cancels[run_id] = token
            try:
                self.store.transition(run_id, "running")
            except StoreError:
                with self._cancel_lock:
                    self._cancels.pop(run_id, None)
                continue  # raced with a cancel; nothing to do
            try:
                value = self._execute(run_id, job["payload"], token)
            except SweepCancelled as exc:
                if self._draining:
                    self.store.transition(run_id, "queued", priority=True)
                    logger.warning("drain: job %s re-queued (%s)", run_id, exc)
                else:
                    self.store.transition(run_id, "cancelled", error=str(exc))
                    self._count("jobs_cancelled")
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                detail = f"{type(exc).__name__}: {exc}"
                for cell in getattr(exc, "failures", ()):  # SweepCellsFailed
                    first = (cell.error or "").splitlines() or [""]
                    detail += f"\n  {cell.key}: {cell.status}: {first[0]}"
                self.store.transition(run_id, "failed", error=detail)
                self._count("jobs_failed")
                logger.error("job %s failed: %s", run_id, detail)
            else:
                self.store.transition(run_id, "done", result=result_json(value))
                self._count("jobs_completed")
                logger.info("job %s done", run_id)
            finally:
                with self._cancel_lock:
                    self._cancels.pop(run_id, None)

    def _execute(self, run_id: str, payload: Dict[str, Any], token: _CancelToken):
        def progress(cell, done, total) -> None:
            self.store.record_cell(
                run_id, cell.key, cell.status, cell.elapsed_s, cell.attempts
            )

        options = self.config.sweep_options(progress=progress, cancel=token)
        if payload["kind"] == "experiment":
            from ..analysis.experiments import run_experiment

            return run_experiment(
                payload["name"],
                seeds=tuple(payload["seeds"]),
                epochs=payload["epochs"],
                scale=payload["scale"],
                workers=self.config.sweep_workers,
                cache_dir=str(self.cells_dir),
                resume=True,
                options=options,
            )
        from ..sweep import configured_workers, run_sweep

        spec = SweepSpec(
            payload["name"],
            tuple(
                SweepCell(
                    key=cell["key"], fn=cell["fn"],
                    kwargs=cell["kwargs"], seed=cell["seed"],
                )
                for cell in payload["cells"]
            ),
        )
        sweep = run_sweep(
            spec,
            workers=configured_workers(self.config.sweep_workers),
            cache_dir=str(self.cells_dir),
            resume=True,
            strict=True,
            options=options,
        )
        return sweep.values()

    # -- read models --------------------------------------------------------

    def job_detail(self, run_id: str) -> Optional[Dict[str, Any]]:
        job = self.store.job(run_id)
        if job is None:
            return None
        cells = self.store.cells(run_id)
        done = sum(1 for c in cells if c["status"] in ("ok", "cached"))
        job.pop("result", None)  # served by /result, may be large
        job["cells"] = cells
        job["progress"] = {"settled": len(cells), "ok": done}
        return job

    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "jobs": self.store.counts(),
            "queue": self.queue.depth(),
        }

    def metrics(self) -> Dict[str, Any]:
        with self._counter_lock:
            counters = dict(self.counters)
        payload: Dict[str, Any] = {
            "service": counters,
            "jobs": self.store.counts(),
            "queue": self.queue.depth(),
        }
        if obs_state.enabled():
            payload["metrics"] = obs_metrics.metrics_dict(deterministic_only=True)
        return payload


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs/paths onto the :class:`SimService` methods."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1"

    @property
    def service(self) -> SimService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        logger.debug("%s %s", self.address_string(), format % args)

    def _client_label(self) -> str:
        """Advisory client label recorded on the job row.

        Never used for rate limiting -- the ``X-Client`` header is
        client-controlled, so buckets key on the remote address instead
        (rotating header values must not mint fresh buckets).
        """
        return self.headers.get("X-Client") or self.client_address[0]

    def _send_json(
        self, status: int, body: Dict[str, Any], headers: Optional[Dict[str, str]] = None
    ) -> None:
        data = (json.dumps(body, sort_keys=True) + "\n").encode()
        self._send_raw(status, data, headers)

    def _send_raw(
        self, status: int, data: bytes, headers: Optional[Dict[str, str]] = None
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return None
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["healthz"]:
            self._send_json(200, self.service.health())
        elif parts == ["metrics"]:
            self._send_json(200, self.service.metrics())
        elif parts == ["jobs"]:
            self._send_json(200, {"jobs": self.service.store.jobs()})
        elif len(parts) == 2 and parts[0] == "jobs":
            detail = self.service.job_detail(parts[1])
            if detail is None:
                self._send_json(404, {"error": f"unknown run id {parts[1]!r}"})
            else:
                self._send_json(200, detail)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            self._get_result(parts[1])
        else:
            self._send_json(404, {"error": f"no route for GET {self.path}"})

    def _get_result(self, run_id: str) -> None:
        job = self.service.store.job(run_id)
        if job is None:
            self._send_json(404, {"error": f"unknown run id {run_id!r}"})
            return
        if job["state"] != "done":
            self._send_json(
                409,
                {"error": f"job {run_id} is {job['state']}, not done",
                 "state": job["state"]},
            )
            return
        result = self.service.store.result(run_id) or "null"
        # Raw stored bytes + newline: byte-identical to `repro report
        # <experiment> --json` stdout, the recovery invariant's anchor.
        self._send_raw(200, (result + "\n").encode())

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["jobs"]:
            body = self._read_body()
            if not isinstance(body, dict):
                self._send_json(400, {"error": "request body must be a JSON object"})
                return
            status, payload, headers = self.service.submit(
                body, client=self._client_label(), rate_key=self.client_address[0]
            )
            self._send_json(status, payload, headers)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            status, payload = self.service.cancel(parts[1])
            self._send_json(status, payload)
        else:
            self._send_json(404, {"error": f"no route for POST {self.path}"})
