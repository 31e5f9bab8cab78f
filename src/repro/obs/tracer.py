"""Structured event tracer with Chrome ``trace_event`` export.

The event half of :mod:`repro.obs`.  Instrumented code emits **spans**
(``with span("sim.engine.wave"): ...``) and **instants**
(``instant("nn.train.rollback", epoch=3)``); when observability is off
(:func:`repro.obs.state.enabled` false) ``span`` returns the shared
:data:`NULL_SPAN` and ``instant`` returns at once, so hot paths pay a
single boolean test.  :mod:`repro.perf.timers` builds ``stage()`` and
``@timed`` on ``span`` under the same switch.

Events accumulate in a process-global buffer as plain dicts already in
Chrome ``trace_event`` shape (``ph`` ``B``/``E`` duration events and
``ph`` ``i`` instants, ``ts`` in microseconds from
``time.perf_counter_ns``).  :func:`to_chrome_trace` wraps the buffer in
the ``{"traceEvents": [...]}`` envelope with thread-name metadata so
Perfetto / ``chrome://tracing`` can load it directly.

Tracks: every event names a *track* (default ``"main"``), rendered as a
thread row.  Timestamps come from a process-monotonic clock, so within
one track (one process) they never go backwards -- the conformance
property ``tests/obs/test_tracer.py`` pins.  Sweep workers run against
a swapped-in buffer (:func:`swap_buffer`), ship their events home in
the result tuple, and the parent :func:`ingest`\\ s them onto
``pid``-tagged tracks.

Spans always close: ``span.__exit__`` emits the ``E`` event on the
exception path too, so a cell that raises mid-span still yields a
balanced trace.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

from . import state

__all__ = [
    "NULL_SPAN",
    "events",
    "ingest",
    "instant",
    "reset",
    "span",
    "swap_buffer",
    "to_chrome_trace",
    "write_chrome_trace",
]

_events: List[Dict[str, Any]] = []


def _now_us() -> float:
    return time.perf_counter_ns() / 1000.0


class _NullSpan:
    """Shared do-nothing span handed out when observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: The one do-nothing span, also returned by ``repro.perf.stage`` when off.
NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_name", "_track", "_args")

    def __init__(self, name: str, track: str, args: Optional[Dict[str, Any]]):
        self._name = name
        self._track = track
        self._args = args

    def __enter__(self) -> "_Span":
        event: Dict[str, Any] = {
            "name": self._name,
            "ph": "B",
            "ts": _now_us(),
            "pid": os.getpid(),
            "tid": self._track,
        }
        if self._args:
            event["args"] = self._args
        _events.append(event)
        return self

    def __exit__(self, *exc) -> bool:
        # Emitted unconditionally so every B has a matching E even when
        # the body raises (the balance property the conformance test pins).
        _events.append(
            {
                "name": self._name,
                "ph": "E",
                "ts": _now_us(),
                "pid": os.getpid(),
                "tid": self._track,
            }
        )
        return False


def span(name: str, track: str = "main", **args: Any):
    """A context manager tracing ``name`` as a B/E duration event pair
    on ``track``; extra kwargs become the event's ``args``."""
    if not state.enabled():
        return NULL_SPAN
    return _Span(name, track, args or None)


def instant(name: str, track: str = "main", **args: Any) -> None:
    """Emit a point-in-time event (watchdog rollback, stall, ...)."""
    if not state.enabled():
        return
    event: Dict[str, Any] = {
        "name": name,
        "ph": "i",
        "s": "t",
        "ts": _now_us(),
        "pid": os.getpid(),
        "tid": track,
    }
    if args:
        event["args"] = args
    _events.append(event)


def events() -> List[Dict[str, Any]]:
    """The live event buffer (callers must not mutate entries)."""
    return _events


def reset() -> None:
    """Drop every buffered event."""
    _events.clear()


def swap_buffer(new: Optional[List[Dict[str, Any]]] = None) -> List[Dict[str, Any]]:
    """Install ``new`` (or a fresh list) as the buffer, returning the
    previous one -- the isolation primitive for sweep cell bodies."""
    global _events
    prev = _events
    _events = new if new is not None else []
    return prev


def ingest(worker_events: List[Dict[str, Any]]) -> None:
    """Append events shipped home by a worker process.

    Events keep their originating ``pid``/``tid``, so each worker
    renders as its own process group and per-track monotonicity (one
    track == one process-local clock) is preserved.
    """
    _events.extend(worker_events)


def to_chrome_trace() -> Dict[str, Any]:
    """The buffer wrapped as a Chrome ``trace_event`` JSON object."""
    trace_events: List[Dict[str, Any]] = []
    seen_tracks = set()
    for event in _events:
        key = (event["pid"], event["tid"])
        if key not in seen_tracks:
            seen_tracks.add(key)
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": event["pid"],
                    "tid": event["tid"],
                    "args": {"name": str(event["tid"])},
                }
            )
    trace_events.extend(_events)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str) -> str:
    """Serialize :func:`to_chrome_trace` to ``path``; returns ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(), fh)
    return path
