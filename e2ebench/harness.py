"""Workloads, output checks and measuring loops of the end-to-end benchmark.

Each workload is one whole paper experiment, called through its function in
``repro.analysis.experiments`` with ``workers=1``: a closed loop in one
process, one experiment after another with no think time.  Every timed
repetition starts from an empty block-cost memo (the only in-process
memo), so each repetition runs the same program a ``repro report`` user
runs in a fresh process.  Simulated cycles, bytes and energy are outputs:
they are checked against pinned digests, never timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".e2ebench-out"
DIGESTS = BENCH_DIR / "digests.json"
LAYER_PLAN = BENCH_DIR / "layers.json"

#: Fig. 13 headline: TB-STC over HighLight and RM-STC (speed-up, EDP gain).
PAPER_FIG13 = {
    ("HighLight", "speedup"): 1.22,
    ("HighLight", "edp"): 1.62,
    ("RM-STC", "speedup"): 1.06,
    ("RM-STC", "edp"): 1.92,
}

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    """One paper experiment at a pinned size; the seed comes from the run."""

    name: str
    function: str
    kwargs: Tuple[Tuple[str, Any], ...]
    #: The function takes ``seeds=(seed,)`` rather than ``seed=seed``.
    seeds_tuple: bool = False
    #: Cell values are simulator outputs, digested on their own.
    simulator: bool = False
    #: Percentile reported as ``cell_tail_s`` (see :func:`tail_latency`).
    tail_pct: int = 90

    def run(self, seed: int):
        from repro.analysis import experiments

        seed_arg = {"seeds": (seed,)} if self.seeds_tuple else {"seed": seed}
        return getattr(experiments, self.function)(workers=1, **dict(self.kwargs), **seed_arg)

    def resized(self, **kwargs) -> "Workload":
        return replace(self, kwargs=tuple(sorted(kwargs.items())))


WORKLOADS = {
    "fig13": Workload("fig13", "run_fig13_end2end", (("scale", 8),), simulator=True, tail_pct=92),
    "scenarios": Workload("scenarios", "run_scenarios", (("scale", 16),), simulator=True, tail_pct=83),
    "table1": Workload("table1", "run_table1", (("epochs", 1),), seeds_tuple=True, tail_pct=86),
}

#: (name, unit, better) of every end-to-end metric (``--trace 0``).
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("cell_p50_s", "s", "lower"),
    ("cell_tail_s", "s", "lower"),
)


def _per_layer_table():
    rows = [
        ("analysis.driver.self_s", "s", "lower"),
        ("sweep.cells", "count", "higher"),
        ("sweep.cell_s", "s", "lower"),
        ("sweep.dispatch_s", "s", "lower"),
        ("sweep.cells_failed", "count", "lower"),
        ("sweep.run.self_s", "s", "lower"),
    ]
    for layer in tracing.LAYERS[2:]:
        rows += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.s", "s", "lower"),
            (f"{layer}.self_s", "s", "lower"),
        ]
    rows += [
        ("workloads.synthetic_weights.repeat_ratio", "ratio", "lower"),
        ("formats.encode.bytes", "bytes", "lower"),
        ("formats.encode.repeat_ratio", "ratio", "lower"),
        ("formats.traffic.segments", "count", "lower"),
        ("formats.traffic.fetched_bytes", "bytes", "lower"),
        ("sim.host_us_per_block", "us", "lower"),
        ("sim.cycles", "cycles", "lower"),
        ("sim.macs", "count", "lower"),
        ("sim.cost_memo.hit_ratio", "ratio", "higher"),
        ("hw.scheduler.tasks", "count", "lower"),
        ("hw.dvpe.blocks", "count", "lower"),
        ("hw.codec.blocks", "count", "lower"),
        ("trace.hook_s", "s", "lower"),
        ("unattributed_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return tuple(rows)


#: (name, unit, better) of every per-layer metric (``--trace 1``).
PER_LAYER = _per_layer_table()


# ---------------------------------------------------------------------------
# Program under test
# ---------------------------------------------------------------------------


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


#: One BLAS thread, like the one sweep worker: on a small shared host a
#: second BLAS thread measures how fast an idle virtual CPU wakes up.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def prepare_environment() -> List[str]:
    """Fix the environment before numpy or the program is imported.

    Drops every ``REPRO_*`` variable (``REPRO_SWEEP_WORKERS``,
    ``REPRO_REFERENCE_IMPL``, ``REPRO_CHECKS``, ``REPRO_TSOLVER`` and the
    chaos switches each change the measured program) and pins BLAS to
    one thread.  Returns the names it dropped.  The set-up probes inherit
    the result.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was fixed")
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    os.environ.update(BLAS_THREADS)
    return cleared


def use_program() -> None:
    """Import ``repro`` from this checkout's ``src`` (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"imported repro from {where}, not from {SRC}")


def _assert_instrumentation_off() -> None:
    from repro.obs import state as obs_state
    from repro.perf import timers

    if obs_state.enabled() or timers.enabled():
        raise RuntimeError("repro.obs or repro.perf.timers is switched on; refusing to measure")


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------


def canonical(obj, bad: Optional[List[str]] = None):
    """JSON-ready form of an experiment's value; floats to 12 significant digits."""
    if isinstance(obj, dict):
        return {str(k): canonical(v, bad) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(v, bad) for v in obj]
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        if not math.isfinite(obj) and bad is not None:
            bad.append(repr(obj))
        return format(float(obj), ".12g")
    raise TypeError(f"cannot digest a {type(obj).__name__}")


def digest(obj, bad: Optional[List[str]] = None) -> str:
    text = json.dumps(canonical(obj, bad), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def output_digests(workload: Workload, value, sweeps) -> Tuple[Dict[str, str], List[str]]:
    """Digests of the experiment's value and, for simulator workloads, of every
    cell's simulated statistics; plus any non-finite numbers found."""
    bad: List[str] = []
    got = {"value": digest(value, bad)}
    if workload.simulator:
        cells = [cell.value for _, result in sweeps if result is not None for cell in result.cells]
        got["sim"] = digest(cells, bad)
    return got, bad


def load_digests() -> Dict[str, Dict[str, Dict[str, str]]]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def paper_ratios(value) -> Dict[str, float]:
    """The four Fig. 13 TB-STC ratios, averaged over models."""
    out = {}
    for (base, metric) in PAPER_FIG13:
        if metric == "speedup":
            ratios = [v["speedup"]["TB-STC"] / v["speedup"][base] for v in value.values()]
        else:
            ratios = [v["edp"][base] / v["edp"]["TB-STC"] for v in value.values()]
        out[f"{metric}_over_{base}"] = statistics.fmean(ratios)
    return out


def paper_rel_err(value) -> float:
    """Mean relative error of the four TB-STC ratios against the paper."""
    ours = paper_ratios(value)
    return statistics.fmean(
        abs(ours[f"{metric}_over_{base}"] - paper) / paper
        for (base, metric), paper in PAPER_FIG13.items()
    )


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    workload: str
    traced: bool
    wall_s: float
    attempted: int
    failed: int
    #: ``(cell key, elapsed seconds)`` of every cell that succeeded.
    cell_latencies: List[Tuple[str, float]]
    digests: Dict[str, str]
    problems: List[str]
    value: Any = None
    instruments: Any = None
    #: Machine-speed factor: reference kernel time / kernel time around this
    #: repetition.  Reported times are raw times multiplied by it.
    speed: float = 1.0


def run_rep(workload: Workload, seed: int, traced: bool) -> Rep:
    from repro.sim.engine import clear_cost_memo

    clear_cost_memo()
    _assert_instrumentation_off()
    problems: List[str] = []
    value = None
    with tracing.Instruments(traced) as ins:
        index = ins.recorder.open(tracing.EXPERIMENT) if traced else None
        start = time.perf_counter()
        try:
            value = workload.run(seed)
        except Exception as exc:  # noqa: BLE001 - a failing experiment is a measured outcome
            problems.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        if traced:
            ins.recorder.close(index)
    attempted = sum(n for n, _ in ins.sweeps) or 1
    cells = [c for _, result in ins.sweeps if result is not None for c in result.cells]
    failed = sum(1 for c in cells if not c.ok)
    digests: Dict[str, str] = {}
    if value is not None:
        digests, bad = output_digests(workload, value, ins.sweeps)
        problems += [f"non-finite output {b}" for b in bad]
    return Rep(
        workload=workload.name,
        traced=traced,
        wall_s=wall,
        attempted=attempted,
        failed=failed,
        cell_latencies=[(c.key, c.elapsed_s) for c in cells if c.ok],
        digests=digests,
        problems=problems,
        value=value,
        instruments=ins if traced else None,
    )


def check_rep(rep: Rep, expected: Optional[Dict[str, str]]) -> None:
    """Compare a repetition's digests with the expected ones, in place."""
    if expected is not None:
        for key, want in expected.items():
            got = rep.digests.get(key)
            if got != want:
                rep.problems.append(f"{key} digest {got} != expected {want}")
    if rep.problems:
        rep.failed = rep.attempted


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

#: Calibration kernel time on the reference machine (2-vCPU x86 VM,
#: OpenBLAS numpy, quiet periods).  Reported times are in seconds at this
#: machine speed.
REFERENCE_KERNEL_S = 0.0065
CALIBRATION_S = 0.25


class Calibration:
    """Times a fixed Python + numpy kernel to track the machine's speed.

    On a shared host the same code runs up to ~40% slower for stretches of
    a few seconds.  Timing this kernel just before and just after each
    repetition, and scaling the repetition's times by
    ``REFERENCE_KERNEL_S / kernel time``, removes most of that drift from
    the reported times while leaving any change in the program itself.
    """

    def __init__(self) -> None:
        import numpy as np

        self._rng = np.random.default_rng(0)
        self._a = self._rng.normal(size=(200, 200))
        self._np = np
        self.kernel_s(warm_up=True)

    def _kernel(self) -> float:
        np = self._np
        total = 0.0
        for i in range(20000):
            total += i * 0.5
        b = self._a
        for _ in range(5):
            b = np.tanh(b @ self._a / 200)
        sorted(self._rng.random(20000).tolist())
        return total

    def kernel_s(self, warm_up: bool = False) -> float:
        """Median kernel time over ``CALIBRATION_S`` seconds."""
        times = []
        end = time.perf_counter() + (2 * CALIBRATION_S if warm_up else CALIBRATION_S)
        while time.perf_counter() < end:
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> List[float]:
    """Seconds from starting a fresh interpreter to its first cell being ready.

    Covers interpreter start, ``import repro``, the experiment's grid building
    and the sweep engine's set-up; the probe exits as the first cell body
    is entered (see ``probe.py``).  First-call costs inside cells stay in
    the timed repetitions: every ``repro report`` process pays them, and
    with BLAS on one thread no repetition-one penalty remains to move.
    """
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready":
            raise RuntimeError(f"set-up probe for {workload} exited without reaching a cell")
        times.append(ready - start)
    return times


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail_latency(samples: List[float], pct: int) -> Tuple[float, int]:
    """The ``pct`` percentile (nearest rank) and the count of samples beyond it.

    Each workload fixes its percentile: the highest one with at least ten
    samples beyond it in a run of the set length, lowered to the middle of
    a band of cells of one kind.  The cells of an experiment fall into
    bands by kind (each kind recurs once per repetition), and a rank at a
    band edge jumps between bands as the repetition count changes; a fixed
    percentile also keeps the metric comparable when a faster program fits
    more repetitions into a run.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def layer_metrics(rep: Rep) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one traced repetition, plus accounting problems."""
    rec = rep.instruments.recorder
    totals = tracing.span_totals(rec.spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    t = lambda layer: totals.get(layer, zero)  # noqa: E731
    counters = rec.counters
    results = [r for _, r in rep.instruments.sweeps if r is not None]
    cells = [c for r in results for c in r.cells]
    cell_s = sum(c.elapsed_s for c in cells)

    m: Dict[str, float] = {
        "analysis.driver.self_s": t(tracing.EXPERIMENT)["self_s"],
        "sweep.cells": len(cells),
        "sweep.cell_s": cell_s,
        "sweep.dispatch_s": sum(r.elapsed_s for r in results) - cell_s,
        "sweep.cells_failed": sum(1 for c in cells if not c.ok),
        "sweep.run.self_s": t(tracing.SWEEP)["self_s"],
    }
    for layer in tracing.LAYERS[2:]:
        for key in ("calls", "s", "self_s"):
            m[f"{layer}.{key}"] = t(layer)[key]

    def ratio(num, den):
        return num / den if den else 0.0

    sim_calls = m["sim.simulate.calls"]
    m.update({
        "workloads.synthetic_weights.repeat_ratio": ratio(
            counters["workloads.synthetic_weights.repeats"], m["workloads.synthetic_weights.calls"]
        ),
        "formats.encode.bytes": counters["formats.encode.bytes"],
        "formats.encode.repeat_ratio": ratio(counters["formats.encode.repeats"], m["formats.encode.calls"]),
        "formats.traffic.segments": counters["formats.traffic.segments"],
        "formats.traffic.fetched_bytes": counters["formats.traffic.fetched_bytes"],
        "sim.host_us_per_block": ratio(1e6 * m["sim.simulate.s"], counters["sim.blocks"]),
        "sim.cycles": counters["sim.cycles"],
        "sim.macs": counters["sim.macs"],
        "sim.cost_memo.hit_ratio": 1.0 - ratio(m["hw.dvpe.calls"], sim_calls) if sim_calls else 0.0,
        "hw.scheduler.tasks": counters["hw.scheduler.tasks"],
        "hw.dvpe.blocks": counters["hw.dvpe.blocks"],
        "hw.codec.blocks": counters["hw.codec.blocks"],
        "trace.hook_s": t(tracing.HOOK)["self_s"],
        "unattributed_s": t(tracing.CELL)["self_s"],
        "trace.wall_s": t(tracing.EXPERIMENT)["s"],
    })

    problems = []
    unknown = set(totals) - set(tracing.LAYERS) - {tracing.CELL, tracing.HOOK}
    if unknown:
        problems.append(f"spans outside the layer table: {sorted(unknown)}")
    covered = sum(t(layer)["self_s"] for layer in tracing.LAYERS) + m["trace.hook_s"] + m["unattributed_s"]
    if abs(covered - m["trace.wall_s"]) > 1e-6:
        problems.append(f"self times sum to {covered:.6f} s, traced wall is {m['trace.wall_s']:.6f} s")
    plan = json.loads(LAYER_PLAN.read_text())["workloads"].get(rep.workload, {})
    for layer in plan.get("active", ()):
        calls = m.get(f"{layer}.calls", m.get(layer, 0))
        if not calls:
            problems.append(f"layer {layer} predicted to work here recorded zero calls")
    return m, problems


# ---------------------------------------------------------------------------
# A whole run
# ---------------------------------------------------------------------------


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    expected: Optional[Dict[str, str]],
    setup_probes: int = SETUP_PROBES,
) -> Tuple[Dict[str, Any], List[str]]:
    """Run ``workload`` for ``seconds`` and return (result JSON, summary lines).

    Untraced: repetitions run until ``seconds`` have passed (the last one
    finishes), after ``setup_probes`` fresh-interpreter set-up probes.
    Traced: untraced and traced repetitions alternate, at least one of
    each; the per-layer metrics come from the traced repetition with the
    median wall time, and ``trace.overhead_s`` is the difference between
    the traced and untraced median (speed-scaled) wall times.

    End-to-end times are scaled to the reference machine speed by the
    calibration kernel timed around each repetition (:class:`Calibration`);
    per-layer times are raw seconds of the one traced repetition.
    """
    summary: List[str] = []
    calibration = Calibration()
    setup_speed = 1.0
    setup: List[float] = []
    if not trace:
        before = calibration.kernel_s()
        setup = measure_setup(workload.name, seed, setup_probes)
        setup_speed = 2 * REFERENCE_KERNEL_S / (before + calibration.kernel_s())
    reps: List[Rep] = []
    kernel_before = calibration.kernel_s()
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(workload, seed, traced)
        kernel_after = calibration.kernel_s()
        rep.speed = 2 * REFERENCE_KERNEL_S / (kernel_before + kernel_after)
        kernel_before = kernel_after
        reference = expected if expected is not None else (reps[0].digests if reps else None)
        check_rep(rep, reference)
        reps.append(rep)
        enough = not trace or any(r.traced for r in reps)
        if enough and time.perf_counter() >= deadline:
            break

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    problems = [p for r in reps for p in r.problems]
    plain = [r for r in reps if not r.traced]
    summary.append(
        f"{workload.name} seed={seed}: {len(plain)} untraced + {len(reps) - len(plain)} traced "
        f"repetition(s); output check against "
        + ("pinned digests" if expected is not None else "the first repetition (seed not pinned)")
    )
    first_value = next((r.value for r in reps if r.value is not None), None)
    if workload.name == "fig13" and first_value is not None:
        ratios = paper_ratios(first_value)
        summary.append(
            f"paper_rel_err = {paper_rel_err(first_value):.6f} (mean |ours-paper|/paper of "
            + ", ".join(f"{k}={v:.4f}" for k, v in ratios.items())
            + "; paper 1.22, 1.62, 1.06, 1.92)"
        )
    summary.append(f"failed_ratio = {failed / attempted:.6f} ({failed} of {attempted} cells)")
    summary.append("repetition walls, raw s x speed factor: " + ", ".join(
        f"{r.wall_s:.3f}{'*' if r.traced else ''}x{r.speed:.3f}" for r in reps
    ) + (" (* traced)" if trace else ""))

    metrics: Dict[str, Dict[str, Any]] = {}
    if not trace:
        latencies = [(key, x * r.speed) for r in plain for key, x in r.cell_latencies] or [("", 0.0)]
        by_cell: Dict[str, List[float]] = {}
        for key, x in latencies:
            by_cell.setdefault(key, []).append(x)
        tail, beyond = tail_latency([x for _, x in latencies], workload.tail_pct)
        values = {
            "wall_s": statistics.median(r.wall_s * r.speed for r in plain),
            "setup_s": statistics.median(setup) * setup_speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # Median over cells of each cell's median: a plain median of all
            # samples sits on the edge between two kinds of cell.
            "cell_p50_s": statistics.median(statistics.median(v) for v in by_cell.values()),
            "cell_tail_s": tail,
        }
        summary.append(
            f"cell_tail_s is p{workload.tail_pct} of {len(latencies)} cell latencies, "
            f"{beyond} beyond it" + ("" if beyond >= 10 else " (fewer than ten: a short run)")
        )
        summary.append(
            f"raw medians: wall {statistics.median(r.wall_s for r in plain):.4f} s, "
            f"setup {statistics.median(setup):.4f} s (set-up speed factor {setup_speed:.3f})"
        )
        for name, unit, _ in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        traced_reps = sorted((r for r in reps if r.traced), key=lambda r: r.wall_s)
        chosen = traced_reps[(len(traced_reps) - 1) // 2]
        values, layer_problems = layer_metrics(chosen)
        problems += layer_problems
        values["trace.overhead_s"] = statistics.median(
            r.wall_s * r.speed for r in traced_reps
        ) - statistics.median(r.wall_s * r.speed for r in plain)
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"{workload.name}-seed{seed}-trace.json"
        trace_path.write_text(json.dumps({
            "workload": workload.name,
            "seed": seed,
            "wall_s": chosen.wall_s,
            "spans": tracing.spans_as_records(chosen.instruments.recorder.spans),
        }))
        summary.append(f"spans written to {trace_path.relative_to(ROOT)}")

    for name, entry in metrics.items():
        summary.append(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for problem in problems:
        summary.append(f"problem: {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, summary
