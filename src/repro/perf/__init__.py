"""Performance subsystem: stage timers and the bench harness.

Two concerns live here:

* :mod:`repro.perf.timers` -- lightweight per-stage timers
  (``perf_counter_ns`` based, zero overhead when disabled) wired into the
  simulator pipeline, the schedulers, the format codecs and the training
  loop.  ``simulate()`` surfaces a per-stage split as
  ``SimResult.perf_breakdown`` when timing is enabled.
* :mod:`repro.perf.bench` -- the deterministic micro/macro benchmark
  suite behind ``python -m repro perf``; it emits machine-readable
  ``BENCH_<name>.json`` files that the CI ``bench`` job gates against a
  committed baseline.

Every vectorized hot path has one implementation in ``src/``.  The loop
it replaced lives on as a test oracle (``tests/<pkg>/*_oracle.py``),
and the equivalence suites prove the two agree bit-exactly
(DESIGN.md §4b).
"""

from __future__ import annotations

from .timers import (
    capture,
    disable,
    enable,
    enabled,
    enabled_scope,
    reset,
    snapshot,
    stage,
    timed,
)

__all__ = [
    "capture",
    "disable",
    "enable",
    "enabled",
    "enabled_scope",
    "reset",
    "snapshot",
    "stage",
    "timed",
]
