"""Per-layer spans recorded from outside the program.

The benchmark never switches on ``repro.perf.timers`` or ``repro.obs``.
Instead it replaces public functions of each stack layer with thin
wrappers that record a span (name, start, end, parent span, sweep-cell
id) and a few counts.  A function imported by name into several modules
is replaced in every module that holds it, so a caller finds the wrapper
whichever module it resolves the name from.  Spans live in memory and are
written out once the benchmark ends.

A span's self time is its duration minus the durations of its child
spans.  Summed over every span of one experiment, self times add up to
the duration of the root span (the experiment call); the part no layer
function covers is the self time of the ``sweep.cell`` spans, reported
as ``unattributed_s``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import math
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

EXPERIMENT = "analysis.driver"
SWEEP = "sweep.run"
CELL = "sweep.cell"
HOOK = "trace.hook"

#: (layer, module, function) wrapped wherever the function is bound.
#: ``run_sweep`` is wrapped separately: it also opens the cell spans.
FUNCTIONS = (
    ("workloads.build", "repro.workloads.generator", "build_workload"),
    ("workloads.build", "repro.workloads.models", "build_model_workload"),
    ("workloads.build", "repro.workloads.scenarios", "build_scenario"),
    ("workloads.synthetic_weights", "repro.workloads.generator", "synthetic_weights"),
    ("core.mask", "repro.core.sparsify", "tbs_sparsify"),
    ("core.mask", "repro.core.masks", "make_mask"),
    ("core.mask", "repro.core.masks", "vegeta_mask"),
    ("core.mask", "repro.core.masks", "highlight_mask"),
    ("core.mask", "repro.core.transposable", "transposable_sparsify"),
    ("formats.traffic", "repro.formats.memory_model", "traffic_report"),
    ("sim.simulate", "repro.sim.engine", "simulate"),
    ("hw.scheduler", "repro.hw.scheduler", "schedule_sparsity_aware"),
    ("hw.scheduler", "repro.hw.scheduler", "schedule_direct"),
    ("hw.codec", "repro.formats.conversion", "batch_conversion_cycles"),
    ("nn.train", "repro.nn.train", "train"),
    ("nn.evaluate", "repro.nn.train", "evaluate"),
    ("nn.apply_masks", "repro.nn.train", "apply_masks"),
)

#: (layer, module, class, method) wrapped on the class itself.
METHODS = (
    ("formats.encode", "repro.formats.base", "SparseFormat", "encode"),
    ("hw.dvpe", "repro.hw.dvpe", "DVPE", "block_costs_batch"),
    ("hw.dram", "repro.hw.dram", "DRAMModel", "transfer"),
    ("hw.dram", "repro.hw.dram", "DRAMModel", "transfer_report"),
    ("hw.energy", "repro.hw.energy", "EnergyModel", "report"),
)

#: Transposed-trace derivation: every registered format's own override.
TRACE_T = "formats.trace_t"

#: Every layer whose self time enters the wall-time identity.
LAYERS = (
    EXPERIMENT, SWEEP, "workloads.build", "workloads.synthetic_weights", "core.mask",
    "formats.encode", TRACE_T, "formats.traffic", "sim.simulate", "hw.scheduler",
    "hw.dvpe", "hw.codec", "hw.dram", "hw.energy", "nn.train", "nn.evaluate",
    "nn.apply_masks",
)


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        if a is None:
            h.update(b"-")
        else:
            h.update(repr((a.dtype.str, a.shape)).encode())
            h.update(memoryview(a).cast("B") if a.flags.c_contiguous else a.tobytes())
    return h.hexdigest()


class SpanRecorder:
    """In-memory span list plus the counts taken at layer boundaries."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, cell_id]`` per span.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._seen: Dict[str, set] = defaultdict(set)
        self._stack: List[int] = []
        self._cell: Optional[int] = None
        self._cells = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._cell])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def enter_cell(self) -> Optional[int]:
        previous, self._cell = self._cell, self._cells
        self._cells += 1
        return previous

    def leave_cell(self, previous: Optional[int]) -> None:
        self._cell = previous

    def repeat(self, layer: str, key: Any) -> None:
        """Count a call whose arguments were already seen in this run."""
        if key in self._seen[layer]:
            self.counters[f"{layer}.repeats"] += 1
        self._seen[layer].add(key)


# -- counts taken at layer boundaries (run inside a trace.hook span) ---------


def _count_synthetic_weights(rec, args, kwargs, out):
    rec.repeat("workloads.synthetic_weights", repr((args, sorted(kwargs.items()))))


def _count_encode(rec, args, kwargs, out):
    fmt, values = args[0], args[1]
    spec = args[2] if len(args) > 2 else kwargs.get("spec")
    spec_key = None
    if spec is not None:
        tbs = getattr(spec, "tbs", None)
        spec_key = (
            _digest(getattr(spec, "mask", None)),
            None if tbs is None else _digest(tbs.mask, tbs.block_direction),
            spec.block_size,
            spec.orientation,
        )
    fmt_key = (type(fmt).__name__, repr(sorted(vars(fmt).items())))
    rec.repeat("formats.encode", (fmt_key, _digest(values), spec_key))
    rec.counters["formats.encode.bytes"] += out.total_bytes


def _count_traffic(rec, args, kwargs, out):
    rec.counters["formats.traffic.segments"] += out.num_segments
    rec.counters["formats.traffic.fetched_bytes"] += out.fetched_bytes


def _count_simulate(rec, args, kwargs, out):
    workload = args[1] if len(args) > 1 else kwargs["workload"]
    rows, cols = workload.shape
    m = workload.m
    rec.counters["sim.blocks"] += math.ceil(rows / m) * math.ceil(cols / m)
    rec.counters["sim.cycles"] += out.cycles
    rec.counters["sim.macs"] += out.macs


def _count_scheduler(rec, args, kwargs, out):
    rec.counters["hw.scheduler.tasks"] += len(args[0])


def _count_dvpe(rec, args, kwargs, out):
    rec.counters["hw.dvpe.blocks"] += args[1].shape[0]


def _count_codec(rec, args, kwargs, out):
    rec.counters["hw.codec.blocks"] += args[0].shape[0]


HOOKS: Dict[str, Callable] = {
    "workloads.synthetic_weights": _count_synthetic_weights,
    "formats.encode": _count_encode,
    "formats.traffic": _count_traffic,
    "sim.simulate": _count_simulate,
    "hw.scheduler": _count_scheduler,
    "hw.dvpe": _count_dvpe,
    "hw.codec": _count_codec,
}


class Instruments:
    """Installs the wrappers for one experiment and removes them after.

    With ``trace=False`` only ``run_sweep`` is wrapped, to collect the
    sweep results (cell latencies, cell values) of an untraced run; with
    ``trace=True`` every layer in :data:`FUNCTIONS`/:data:`METHODS` and
    every sweep cell records spans into ``self.recorder``.
    """

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.recorder = SpanRecorder()
        #: ``(spec_cell_count, SweepResult or None)`` per run_sweep call.
        self.sweeps: List[Tuple[int, Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- install / uninstall -------------------------------------------------

    def __enter__(self) -> "Instruments":
        # Import every caller first: a module imported while the wrappers
        # are installed would bind a wrapper that outlives this run.
        importlib.import_module("repro.analysis.experiments")
        engine = importlib.import_module("repro.sweep.engine")
        self._rebind(engine.run_sweep, self._wrap_sweep(engine.run_sweep))
        if self.trace:
            for layer, module, name in FUNCTIONS:
                fn = getattr(importlib.import_module(module), name)
                self._rebind(fn, self._wrap(layer, fn))
            for layer, module, cls_name, name in METHODS:
                cls = getattr(importlib.import_module(module), cls_name)
                self._patch(cls, name, self._wrap(layer, cls.__dict__[name]))
            registry = importlib.import_module("repro.formats.registry")
            for fmt in registry.available_formats():
                cls = registry.format_class(fmt)
                if "transposed_trace" in cls.__dict__:
                    self._patch(
                        cls, "transposed_trace", self._wrap(TRACE_T, cls.__dict__["transposed_trace"])
                    )
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` in every ``repro`` module that binds it."""
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{original.__module__}.{original.__name__} is bound nowhere")

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        rec = self.recorder
        hook = HOOKS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = rec.open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(index)
            if hook is not None:
                index = rec.open(HOOK)
                try:
                    hook(rec, args, kwargs, out)
                finally:
                    rec.close(index)
            return out

        return traced

    def _wrap_cell(self, fn):
        rec = self.recorder

        @functools.wraps(fn)
        def traced_cell(**kwargs):
            previous = rec.enter_cell()
            index = rec.open(CELL)
            try:
                return fn(**kwargs)
            finally:
                rec.close(index)
                rec.leave_cell(previous)

        return traced_cell

    def _wrap_sweep(self, run_sweep):
        instruments = self

        @functools.wraps(run_sweep)
        def recorded_sweep(spec, *args, **kwargs):
            # Cells name their function as "module:qualname" and the engine
            # resolves it at execution time, so wrapping the module
            # attribute for the duration of the sweep reaches every cell.
            patched = []
            if instruments.trace:
                for ref in sorted({cell.fn for cell in spec.cells}):
                    module = sys.modules[ref.partition(":")[0]]
                    name = ref.partition(":")[2]
                    original = getattr(module, name)
                    setattr(module, name, instruments._wrap_cell(original))
                    patched.append((module, name, original))
                index = instruments.recorder.open(SWEEP)
            result = None
            try:
                result = run_sweep(spec, *args, **kwargs)
            except Exception as exc:
                result = getattr(exc, "result", None)
                raise
            finally:
                if instruments.trace:
                    instruments.recorder.close(index)
                for module, name, original in patched:
                    setattr(module, name, original)
                instruments.sweeps.append((len(spec.cells), result))
            return result

        return recorded_sweep


def span_totals(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per layer name: outermost ``calls``, inclusive ``s`` and ``self_s``."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = totals[name]
        entry["self_s"] += (end - start) - children[i]
        if parent < 0 or spans[parent][0] != name:
            entry["calls"] += 1
            entry["s"] += end - start
    return totals


def spans_as_records(spans: List[list]) -> List[Dict[str, Any]]:
    """Spans in a JSON-ready form, times relative to the first span."""
    t0 = spans[0][1] if spans else 0.0
    return [
        {"name": n, "start": s - t0, "end": e - t0, "parent": p, "cell": c}
        for n, s, e, p, c in spans
    ]
