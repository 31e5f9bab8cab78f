"""The instrumentation switch (shared by tracer, metrics and stage timers).

One process-global boolean gates every obs sink and the
:mod:`repro.perf.timers` stage timers; there is no other on/off.
Instrumentation sites in hot paths guard on :func:`enabled` (a single
global read) so the subsystem is zero-cost when off.

The flag is process-global and inherited across ``fork``; the sweep
engine does **not** rely on that inheritance and instead ships the
submitting process's obs state inside each cell payload (see
``repro.sweep.engine._execute_payload``), so spawn-based pools behave
identically.
"""

from __future__ import annotations

__all__ = ["enabled", "enable", "disable", "enabled_scope"]

_enabled = False


def enabled() -> bool:
    """Whether instrumentation (tracing, metrics, stage timing) is collecting."""
    return _enabled


def enable() -> None:
    """Turn observability on (events/metrics accumulate until reset)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn observability off; accumulated data is kept."""
    global _enabled
    _enabled = False


class enabled_scope:
    """Context manager enabling obs inside its block, restoring after."""

    def __enter__(self) -> "enabled_scope":
        global _enabled
        self._prev = _enabled
        _enabled = True
        return self

    def __exit__(self, *exc) -> bool:
        global _enabled
        _enabled = self._prev
        return False
