"""Performance subsystem: stage timers and the bench harness.

Two concerns live here:

* :mod:`repro.perf.timers` -- ``stage()`` and ``@timed``, the per-stage
  instrumentation wired into the simulator pipeline, the schedulers,
  the format codecs and the training loop.  They record only while
  :func:`repro.obs.enabled` is on, the one instrumentation switch;
  ``simulate()`` then surfaces its per-stage split as
  ``SimResult.perf_breakdown``.
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

from .timers import stage, timed

__all__ = ["stage", "timed"]
