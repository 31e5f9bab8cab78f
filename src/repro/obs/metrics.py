"""Metrics registry: counters, gauges, histograms and stage timers.

The registry is the numeric half of :mod:`repro.obs` (the tracer is the
event half).  Four metric kinds, chosen so that **merging two
registries is associative and order-insensitive**:

* **counters** -- integer (or float) totals; merge adds.
* **gauges** -- high-water marks; merge takes the maximum.
* **histograms** -- power-of-two buckets plus exact ``count``/``sum``/
  ``min``/``max``; merge adds counts and sums and combines extrema.
  In-repo instrumentation only observes *integers* (cycles, block
  counts, retries), so sums stay exact Python ints and the merge is
  bit-exact under any grouping -- the property the hypothesis suite
  (``tests/obs/test_metrics_properties.py``) pins.  Float observations
  are accepted but their sums are only order-insensitive up to IEEE-754
  rounding.
* **timers** -- ``[calls, total_ns]`` wall-time records, added by the
  :mod:`repro.perf.timers` stages while obs is on.  Wall time is
  inherently nondeterministic, so timers are
  **excluded** from the deterministic export that crosses process
  boundaries: sweep workers ship ``to_dict(deterministic_only=True)``
  payloads, which is what makes ``--workers N`` metrics byte-identical
  to serial.

The module-level registry is process-global and not thread-safe (the
simulator is single-threaded by construction); :func:`swap_registry`
installs a fresh registry for isolation boundaries (sweep cell bodies,
per-``simulate()`` capture).

``to_dict`` payloads carry ``schema_version`` (:data:`METRICS_SCHEMA`);
``merge_payload``/``from_dict`` refuse other versions so cached or
cross-process payloads from older code fail loudly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

__all__ = [
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "bucket_exponent",
    "capture",
    "counter_add",
    "merge_payload",
    "metrics_dict",
    "observe",
    "registry",
    "reset",
    "swap_registry",
    "timer_add",
]

#: Version stamped into every ``MetricsRegistry.to_dict`` payload.  Bump
#: whenever a kind is added/renamed or merge semantics change, so stale
#: payloads fail loudly in ``merge_payload``/``from_dict``.
METRICS_SCHEMA = 1

Number = Union[int, float]


def bucket_exponent(value: Number) -> int:
    """Power-of-two histogram bucket for ``value``.

    Bucket ``e`` covers ``(2**(e-1), 2**e]``; values ``<= 0`` land in
    bucket ``0`` (so the bucket key is always a small int, and equal
    values land in equal buckets whatever process observed them).
    """
    if value <= 0:
        return 0
    # Integer bit-length avoids float log2 edge cases for the common
    # (cycle-count) path; floats fall back to repeated doubling.
    if isinstance(value, int):
        return (value - 1).bit_length() if value > 1 else 1
    e = 1
    bound = 2.0
    while value > bound and e < 1024:
        bound *= 2.0
        e += 1
    return e


class _Histogram:
    """Fixed power-of-two-bucket histogram with exact extrema."""

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self):
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        e = bucket_exponent(value)
        self.buckets[e] = self.buckets.get(e, 0) + 1
        self.count += 1
        self.total = self.total + value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "_Histogram") -> None:
        for e, n in other.buckets.items():
            self.buckets[e] = self.buckets.get(e, 0) + n
        self.count += other.count
        self.total = self.total + other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(e): n for e, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "_Histogram":
        hist = cls()
        hist.count = int(data["count"])
        hist.total = data["sum"]
        hist.min = data["min"]
        hist.max = data["max"]
        hist.buckets = {int(e): int(n) for e, n in data["buckets"].items()}
        return hist


class MetricsRegistry:
    """One process's (or one isolation scope's) metric state."""

    __slots__ = ("counters", "gauges", "histograms", "timers")

    def __init__(self):
        self.counters: Dict[str, Number] = {}
        self.gauges: Dict[str, Number] = {}
        self.histograms: Dict[str, _Histogram] = {}
        #: name -> [calls, total_ns]; wall time, never merged across
        #: processes (see module docstring).
        self.timers: Dict[str, List[int]] = {}

    # -- recording ----------------------------------------------------------

    def counter_add(self, name: str, value: Number = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: Number) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = _Histogram()
        hist.observe(value)

    def timer_add(self, name: str, elapsed_ns: int) -> None:
        rec = self.timers.get(name)
        if rec is None:
            self.timers[name] = [1, elapsed_ns]
        else:
            rec[0] += 1
            rec[1] += elapsed_ns

    # -- merging ------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into ``self`` (associative, order-insensitive
        for the deterministic kinds); returns ``self`` for chaining."""
        for name, value in other.counters.items():
            self.counter_add(name, value)
        for name, value in other.gauges.items():
            prev = self.gauges.get(name)
            if prev is None or value > prev:
                self.gauges[name] = value
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = _Histogram()
            mine.merge(hist)
        for name, (calls, ns) in other.timers.items():
            rec = self.timers.get(name)
            if rec is None:
                self.timers[name] = [calls, ns]
            else:
                rec[0] += calls
                rec[1] += ns
        return self

    def merge_payload(self, data: Dict[str, Any]) -> "MetricsRegistry":
        """Fold a ``to_dict`` payload (schema-checked) into ``self``."""
        return self.merge(MetricsRegistry.from_dict(data))

    # -- (de)serialization --------------------------------------------------

    def to_dict(self, deterministic_only: bool = False) -> Dict[str, Any]:
        """Versioned JSON-ready payload.

        ``deterministic_only=True`` drops the wall-time ``timers``
        section -- the form that crosses process boundaries and lands in
        sweep JSON, byte-identical at any worker count.
        """
        out: Dict[str, Any] = {
            "schema_version": METRICS_SCHEMA,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: hist.to_dict() for name, hist in sorted(self.histograms.items())
            },
        }
        if not deterministic_only:
            out["timers"] = self.timer_records()
        return out

    def timer_records(self) -> Dict[str, Dict[str, Number]]:
        """The timers as ``{name: {"calls": n, "seconds": s}}``, sorted."""
        return {
            name: {"calls": rec[0], "seconds": rec[1] / 1e9}
            for name, rec in sorted(self.timers.items())
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        version = data.get("schema_version")
        if version != METRICS_SCHEMA:
            raise ValueError(
                f"metrics payload schema {version!r} != supported {METRICS_SCHEMA}"
            )
        reg = cls()
        reg.counters = dict(data.get("counters", {}))
        reg.gauges = dict(data.get("gauges", {}))
        reg.histograms = {
            name: _Histogram.from_dict(h) for name, h in data.get("histograms", {}).items()
        }
        for name, rec in data.get("timers", {}).items():
            reg.timers[name] = [int(rec["calls"]), int(round(rec["seconds"] * 1e9))]
        return reg

    def is_empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms or self.timers)


# -- module-level registry (the default sink) -------------------------------

_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The currently-installed process registry."""
    return _REGISTRY


def swap_registry(new: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install ``new`` (or a fresh registry) and return the previous one.

    The isolation primitive: sweep cell bodies and per-call captures run
    against a fresh registry, export it, and the caller merges the
    export back -- so deltas are exact and nothing double-counts.
    """
    global _REGISTRY
    prev = _REGISTRY
    _REGISTRY = new if new is not None else MetricsRegistry()
    return prev


def counter_add(name: str, value: Number = 1) -> None:
    _REGISTRY.counter_add(name, value)


def observe(name: str, value: Number) -> None:
    _REGISTRY.observe(name, value)


def timer_add(name: str, elapsed_ns: int) -> None:
    _REGISTRY.timer_add(name, elapsed_ns)


def metrics_dict(deterministic_only: bool = False) -> Dict[str, Any]:
    """``to_dict`` of the installed registry."""
    return _REGISTRY.to_dict(deterministic_only=deterministic_only)


def merge_payload(data: Dict[str, Any]) -> None:
    """Fold an exported payload into the installed registry."""
    _REGISTRY.merge_payload(data)


def reset() -> None:
    """Drop every metric in the installed registry."""
    _REGISTRY.counters.clear()
    _REGISTRY.gauges.clear()
    _REGISTRY.histograms.clear()
    _REGISTRY.timers.clear()


class capture:
    """Context manager yielding the *deterministic* metrics recorded
    inside its block.

    Runs the block against a fresh registry, merges it back into the
    surrounding registry on exit (timers included, so ambient
    accounting is preserved), and fills the yielded dict with the fresh
    registry's ``to_dict(deterministic_only=True)``.  The block's
    wall-time records stay out of that dict; after exit they are
    :attr:`timers` (``MetricsRegistry.timer_records`` shape).  This is
    how ``simulate()`` attaches a per-call ``SimResult.metrics`` and
    ``SimResult.perf_breakdown``.
    """

    def __enter__(self) -> Dict[str, Any]:
        self._child = MetricsRegistry()
        self._parent = swap_registry(self._child)
        self.data: Dict[str, Any] = {}
        self.timers: Dict[str, Dict[str, Number]] = {}
        return self.data

    def __exit__(self, *exc) -> bool:
        swap_registry(self._parent)
        self._parent.merge(self._child)
        self.data.update(self._child.to_dict(deterministic_only=True))
        self.timers = self._child.timer_records()
        return False
