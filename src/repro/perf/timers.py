"""Stage timing: ``stage()`` and ``@timed`` over :mod:`repro.obs`.

There is one instrumentation switch, :func:`repro.obs.enabled`.  With it
on, every ``stage(name)`` region and every ``@timed(name)`` call emits a
B/E trace span and adds a ``[calls, total_ns]`` record under ``name`` to
the installed metrics registry's ``timers`` section (wall time, excluded
from the deterministic export).  With it off, ``stage()`` returns the
tracer's shared null span and a ``timed`` wrapper is a straight call
after one boolean test, so the sites stay wired into hot paths
permanently.

Stages aggregate by name; a stage timed inside another contributes to
both (the parent's total includes the child's), which is the natural
reading of a per-stage wall-time split.  A stage entered while one of
the same name is open on the same thread (``build_model_workload``
calling ``build_workload``, both ``workloads.build``) is part of the
open one and records nothing of its own, so no name counts the same
time twice.  A per-region split is the timer section of an
:class:`repro.obs.metrics.capture` block -- how ``simulate()`` fills
``SimResult.perf_breakdown``.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable

from ..obs import metrics as _metrics
from ..obs import tracer as _tracer
from ..obs.state import enabled

__all__ = ["stage", "timed"]


#: ``names``: the stages open on each thread.
_open = threading.local()


class _StageTimer:
    """Traces one region as a span and times it into the registry.

    Inside an open stage of the same name it does neither.
    """

    __slots__ = ("name", "start", "_span", "_outermost")

    def __init__(self, name: str):
        self.name = name
        self._span = _tracer.span(name)

    def __enter__(self) -> "_StageTimer":
        names = getattr(_open, "names", None)
        if names is None:
            names = _open.names = set()
        self._outermost = self.name not in names
        if self._outermost:
            names.add(self.name)
            self._span.__enter__()
            self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        if self._outermost:
            _metrics.timer_add(self.name, time.perf_counter_ns() - self.start)
            self._span.__exit__(*exc)
            _open.names.discard(self.name)
        return False


def stage(name: str):
    """Context manager timing and tracing one region under ``name``."""
    if not enabled():
        return _tracer.NULL_SPAN
    return _StageTimer(name)


def timed(name: str) -> Callable:
    """Decorator timing and tracing every call of the wrapped function."""

    def deco(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not enabled():
                return fn(*args, **kwargs)
            with _StageTimer(name):
                return fn(*args, **kwargs)

        return wrapper

    return deco
