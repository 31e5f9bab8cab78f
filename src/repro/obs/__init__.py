"""repro.obs -- zero-cost-when-off observability (tracing + metrics).

One master switch (:func:`enabled` / :func:`enable` / :func:`disable`
/ :class:`enabled_scope`) gates two sinks, and it is the program's only
instrumentation switch:

* the **tracer** (:mod:`repro.obs.tracer`): span/instant events in
  Chrome ``trace_event`` shape, exportable for Perfetto;
* the **metrics registry** (:mod:`repro.obs.metrics`):
  counters/gauges/histograms whose merge is associative and
  order-insensitive, plus the wall-time records of the
  :mod:`repro.perf.timers` stages, which also emit tracer spans.

Typical use::

    from repro import obs

    with obs.enabled_scope():
        result = simulate(config, workload)   # .metrics and .perf_breakdown set
        obs.write_chrome_trace("trace.json")

Instrumentation sites import the functions they need and guard hot
loops on ``obs.enabled()``; everything is a no-op while the switch is
off, which is the default.
"""

from .metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    capture,
    counter_add,
    gauge_max,
    merge_payload,
    metrics_dict,
    observe,
    registry,
    swap_registry,
    timer_add,
)
from .metrics import reset as reset_metrics
from .state import disable, enable, enabled, enabled_scope
from .tracer import (
    events,
    ingest,
    instant,
    span,
    swap_buffer,
    to_chrome_trace,
    write_chrome_trace,
)
from .tracer import reset as reset_trace

__all__ = [
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "capture",
    "counter_add",
    "disable",
    "enable",
    "enabled",
    "enabled_scope",
    "events",
    "gauge_max",
    "ingest",
    "instant",
    "merge_payload",
    "metrics_dict",
    "observe",
    "registry",
    "reset",
    "reset_metrics",
    "reset_trace",
    "span",
    "swap_buffer",
    "swap_registry",
    "timer_add",
    "to_chrome_trace",
    "write_chrome_trace",
]


def reset() -> None:
    """Clear both sinks (events and metrics)."""
    reset_trace()
    reset_metrics()
