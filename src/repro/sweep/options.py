"""Frozen sweep-execution options (the ``SimOptions`` of the sweep layer).

:class:`SweepOptions` bundles the *how-to-run* knobs of
:func:`~repro.sweep.engine.run_sweep` -- executor choice, per-cell
timeout, retry budget, chaos injection, progress and cancellation --
into one frozen, hashable value that drivers can thread through
unchanged (``run_experiment`` -> table/figure driver -> ``run_sweep``)
instead of growing a kwarg tail at every layer; ``run_sweep`` has no
keyword of its own for any of them.  Worker count, cache
directory and resume are not among them: every driver takes those as
its own ``workers``/``cache_dir``/``resume`` parameters and passes
them to ``run_sweep`` explicitly.

None of these knobs is part of a cell's logical identity: the cell
cache hashes the cell payload only, so the same sweep hits the same
cache entries whatever its options were (see
:mod:`repro.runtime.cellcache`).  By the same token, options must never
change *results* -- only wall-clock, resilience, and telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .executors import EXECUTOR_NAMES

__all__ = ["SweepOptions"]


@dataclass(frozen=True)
class SweepOptions:
    """How a sweep executes (never *what* it computes).

    ``executor`` is ``"auto"``/``None`` (serial when ``workers == 1``,
    supervised otherwise), ``"serial"``, or ``"supervised"``.
    ``timeout`` is a per-cell deadline in seconds, enforced only by the
    supervised executor.  ``retries`` is the number of *extra* attempts
    a cell gets after a transient (``crashed``/``timeout``) outcome --
    deterministic failures are never retried.  ``backoff_s`` seeds the
    exponential backoff between attempts; ``breaker_threshold`` is the
    consecutive-transient-failure count that degrades the sweep to
    inline serial execution.  ``chaos`` optionally carries a
    :class:`repro.faults.chaos.ChaosConfig` for fault drills (typed
    loosely to keep this module free of a faults dependency).

    ``progress`` and ``cancel`` let callers that sit far above
    :func:`~repro.sweep.engine.run_sweep` (the simulation service, which
    only sees ``run_experiment``) observe and interrupt a sweep without
    threading new parameters through every driver: ``progress`` is
    called as each cell settles, with the cell result plus ``(done,
    total)`` counts, and ``cancel`` is an event-like object (anything with an
    ``is_set()`` method) -- once set, no further cells are submitted,
    in-flight cells drain into the cache, and ``run_sweep`` raises
    :class:`~repro.sweep.engine.SweepCancelled`.
    """

    executor: Optional[str] = None
    timeout: Optional[float] = None
    retries: int = 0
    backoff_s: float = 0.05
    breaker_threshold: int = 5
    chaos: Optional[Any] = None
    progress: Optional[Any] = None
    cancel: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.executor is not None and self.executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"unknown executor {self.executor!r}; choose from {EXECUTOR_NAMES}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.progress is not None and not callable(self.progress):
            raise ValueError("progress must be callable (or None)")
        if self.cancel is not None and not callable(
            getattr(self.cancel, "is_set", None)
        ):
            raise ValueError("cancel must expose an is_set() method (or be None)")
