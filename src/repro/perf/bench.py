"""Deterministic micro/macro benchmark suite with a regression gate.

The suite times the simulator's hot paths (micro benches: segment
derivation, DVPE cost batching, both schedulers, every storage format's
encode, the codec stage), the transposable-mask solver backends
(``tsolver_{greedy,tsenor}_m{8,32}`` on seeded block batches), two
macro paths (one full ``simulate`` call and a miniature fig13-style
sweep), and Table I's CNN proxy (one training step and one test-split
``evaluate``).  Every bench is seeded and shape-pinned, so two runs of
the same profile do identical work.

Wall times are normalized by a calibration workload (a fixed numpy +
Python mix timed on the same machine right before the suite), which is
what makes the committed ``BENCH_baseline.json`` comparable across
developer laptops and CI runners: the regression gate compares
*normalized* times, one-sided, so getting faster never fails the gate.

Output schema (``BENCH_<name>.json``)::

    {
      "schema": 1, "name": ..., "profile": "smoke|quick|full",
      "seed": ..., "python": ..., "platform": ...,
      "reference_impl": false, "calibration_s": ...,
      "benches": {name: {"wall_s", "normalized", "cells",
                         "cells_per_s", "stages"}},
      "total_wall_s": ..., "peak_rss_kb": ...
    }

The timed reps run with instrumentation off, as users and ``e2ebench``
run the program.  ``stages`` is the per-stage timer split
(:mod:`repro.perf.timers`) of one extra call per bench, made under
``obs.enabled_scope()`` once the timing is done, with the trace buffer
swapped out so its spans are dropped.  ``peak_rss_kb`` comes from
``resource.getrusage`` -- no third-party dependency.
"""

from __future__ import annotations

import json
import math
import platform
import resource
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import obs

__all__ = [
    "PROFILES",
    "append_trajectory",
    "calibrate",
    "compare",
    "load_bench_json",
    "merge_best",
    "run_suite",
    "run_suite_best",
    "write_bench_json",
]

SCHEMA_VERSION = 1

#: Work sizes per profile.  ``smoke`` exists for unit tests (sub-second),
#: ``quick`` is the CI gate, ``full`` is for committed baselines and
#: local investigation.
PROFILES: Dict[str, Dict[str, int]] = {
    "smoke": {
        "rows": 64, "cols": 64, "b_cols": 16, "n_blocks": 128, "reps": 1,
        "sweep_archs": 2, "tsolver_blocks": 16, "scenario_scale": 64,
    },
    "quick": {
        "rows": 192, "cols": 160, "b_cols": 64, "n_blocks": 2048, "reps": 5,
        "sweep_archs": 3, "tsolver_blocks": 256, "scenario_scale": 16,
    },
    "full": {
        "rows": 384, "cols": 320, "b_cols": 128, "n_blocks": 8192, "reps": 5,
        "sweep_archs": 6, "tsolver_blocks": 256, "scenario_scale": 8,
    },
}

_M = 8

#: Autorange floor: each timed rep loops its callable until at least this
#: much wall time accumulates, so per-call estimates are not timer noise.
_MIN_REP_S = 0.01
#: Safety cap on the autorange loop count (bounds suite runtime even for
#: microsecond-scale callables).
_MAX_INNER = 256


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def calibrate(reps: int = 3) -> float:
    """Seconds for a fixed numpy + Python reference workload (median).

    The mix (argsort, cumsum, boolean reductions, a short Python loop)
    mirrors what the simulator actually does, so the ratio
    ``bench_wall / calibration`` is roughly machine-independent.
    """
    times: List[float] = []
    for _ in range(max(1, reps)):
        rng = np.random.default_rng(0xC0FFEE)
        a = rng.normal(size=(400, 400))
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(6):
            order = np.argsort(a, axis=1, kind="stable")
            b = np.take_along_axis(a, order, axis=1)
            acc += float(np.cumsum(b, axis=0)[-1].sum())
            acc += sum((a > 0).sum(axis=1).tolist()[:100])
        times.append(time.perf_counter() - t0)
    times.sort()
    return max(1e-9, times[len(times) // 2])


# ---------------------------------------------------------------------------
# bench bodies -- each returns (cells, setup-free callable)
# ---------------------------------------------------------------------------


def _bench_workload(sizes: Dict[str, int], seed: int):
    from ..core.patterns import PatternFamily
    from ..workloads.generator import build_workload
    from ..workloads.layers import LayerSpec

    layer = LayerSpec("bench", sizes["rows"], sizes["cols"], sizes["b_cols"])
    return build_workload(layer, PatternFamily.TBS, sparsity=0.75, m=_M, seed=seed)


def _micro_benches(sizes: Dict[str, int], seed: int) -> List[Tuple[str, int, Callable[[], None]]]:
    from ..formats.base import EncodeSpec
    from ..formats.bcsrcoo import BCSRCOOFormat
    from ..formats.bitmap import BitmapFormat
    from ..formats.csr import CSRFormat
    from ..formats.ddc import DDCFormat
    from ..formats.memory_model import traffic_report
    from ..formats.sdc import SDCFormat
    from ..hw.config import tb_stc
    from ..hw.dvpe import DVPE
    from ..hw.scheduler import schedule_direct, schedule_sparsity_aware
    from ..sim.engine import _codec_visible_and_elements, block_segments

    rng = np.random.default_rng(seed)
    config = tb_stc()
    workload = _bench_workload(sizes, seed)
    n_blocks = sizes["n_blocks"]
    row_counts = rng.integers(0, _M + 1, size=(n_blocks, _M)).astype(np.int64)
    costs = rng.integers(1, 3 * _M, size=n_blocks).astype(np.int64)
    pe = DVPE(lanes=config.lanes_per_pe, output_port_width=config.output_port_width)
    _, dirs = block_segments(workload, config)
    sparse = workload.sparse_values
    matrix_cells = sparse.size

    benches: List[Tuple[str, int, Callable[[], None]]] = [
        (
            "block_segments",
            matrix_cells,
            lambda: block_segments(workload, config),
        ),
        (
            "dvpe_costs",
            n_blocks * _M,
            lambda: pe.block_costs_batch(row_counts),
        ),
        (
            "schedule_direct",
            n_blocks,
            lambda: schedule_direct(costs, config.num_pes),
        ),
        (
            "schedule_sparsity_aware",
            n_blocks,
            lambda: schedule_sparsity_aware(costs, config.num_pes, window=config.scheduler_window),
        ),
        (
            # The whole codec stage of simulate() (block split, COL-block
            # selection, closed-form cycle count) on the bench workload;
            # the count alone takes ~10 us, below what the gate resolves.
            "codec_batch",
            matrix_cells,
            lambda: _codec_visible_and_elements(workload, config, dirs, 0.0),
        ),
    ]
    # Each encode bench reads the payload too, so it times the layout and
    # the gather together, as the decode and fault paths pay them.
    for fmt in (DDCFormat(), SDCFormat(group_rows=_M), CSRFormat(), BitmapFormat(), BCSRCOOFormat()):
        spec = EncodeSpec(
            tbs=workload.tbs if fmt.name in ("ddc", "bcsrcoo") else None,
            block_size=_M,
        )
        benches.append(
            (
                f"encode_{fmt.name}",
                matrix_cells,
                lambda fmt=fmt, spec=spec: fmt.encode(sparse, spec).arrays,
            )
        )

    # Orientation benches: transposed-trace derivation is the new hot
    # path (built lazily per encoding, once per orientation flip), so pin
    # its cost per format.  Each bench owns its encoding and clears the
    # cache first so every call measures a full derivation, not a hit.
    tbs_spec = EncodeSpec(tbs=workload.tbs, block_size=_M)
    plain_spec = EncodeSpec(block_size=_M)
    traced = {
        "csr": CSRFormat().encode(sparse, plain_spec),
        "ddc": DDCFormat().encode(sparse, tbs_spec),
        "bcsrcoo": BCSRCOOFormat().encode(sparse, tbs_spec),
    }

    def _trace_t(enc) -> None:
        enc.transposed_segments = None
        enc.trace("transposed")

    benches.append(
        ("format_trace_t_csr", matrix_cells, lambda enc=traced["csr"]: _trace_t(enc))
    )
    benches.append(
        ("format_trace_t_ddc", matrix_cells, lambda enc=traced["ddc"]: _trace_t(enc))
    )
    benches.append(
        ("bcsrcoo_trace_t", matrix_cells, lambda enc=traced["bcsrcoo"]: _trace_t(enc))
    )

    both_encs = tuple(traced.values())

    def _traffic_both() -> None:
        # Both passes analysed from already-built encodings; the
        # transposed traces are pre-warmed above so this isolates the
        # burst/merge analysis cost itself.
        for enc in both_encs:
            for orientation in ("forward", "transposed"):
                traffic_report(enc, m=_M, orientation=orientation)

    for enc in both_encs:
        enc.trace("transposed")
    benches.append(
        ("format_traffic_both", matrix_cells * len(both_encs), _traffic_both)
    )
    return benches


def _tsolver_benches(sizes: Dict[str, int], seed: int) -> List[Tuple[str, int, Callable[[], None]]]:
    """Transposable-mask solver speed benches, greedy vs tsenor.

    Same seeded block batches per backend pair, so the committed
    baseline pins the tsenor-vs-greedy speed ratio: the M=32 pair is the
    scenario the batched Sinkhorn backend exists for (>= 5x on this
    shape), the M=8 pair guards the small-block regime where the batch
    advantage is thinner.  ``exact`` is deliberately absent -- it is the
    quality oracle (see ``benchmarks/test_tsolver_tradeoff.py``), orders
    of magnitude slower, and would dominate suite wall time.
    """
    from ..core.tsolvers import solve_blocks

    rng = np.random.default_rng(seed)
    b = max(1, sizes["tsolver_blocks"])
    batches = {
        8: np.abs(rng.normal(size=(b * 4, 8, 8))),
        32: np.abs(rng.normal(size=(b, 32, 32))),
    }
    benches: List[Tuple[str, int, Callable[[], None]]] = []
    for m, blocks in batches.items():
        n = 3 * m // 8
        for backend in ("greedy", "tsenor"):
            benches.append(
                (
                    f"tsolver_{backend}_m{m}",
                    int(blocks.size),
                    lambda blocks=blocks, n=n, backend=backend: solve_blocks(
                        blocks, n, backend=backend
                    ),
                )
            )
    return benches


def _macro_benches(sizes: Dict[str, int], seed: int) -> List[Tuple[str, int, Callable[[], None]]]:
    from ..hw.config import all_baselines
    from ..sim.baselines import ARCH_FAMILY, simulate_arch
    from ..sim.engine import clear_cost_memo
    from ..workloads.generator import build_workload
    from ..workloads.layers import LayerSpec

    workload = _bench_workload(sizes, seed)
    matrix_cells = workload.values.size
    configs = list(all_baselines())[: max(1, sizes["sweep_archs"])]
    layer = LayerSpec("bench-sweep", sizes["rows"], sizes["cols"], sizes["b_cols"])

    def _sweep() -> None:
        # Fresh workloads per arch family (mask generation included, as
        # in the real fig13 sweep).  Every memo is emptied first, so each
        # call generates the layer's weights once and shares them across
        # its architectures, exactly as the real sweep does, and repeated
        # suite runs measure the same work.
        clear_cost_memo()
        from ..core.patterns import PatternFamily

        for config in configs:
            family = ARCH_FAMILY.get(config.name, PatternFamily.TBS)
            w = build_workload(layer, family, sparsity=0.75, m=_M, seed=seed)
            simulate_arch(config, w)

    def _simulate_layer() -> None:
        clear_cost_memo()
        simulate_arch(configs[0], workload)

    return [
        ("simulate_layer", matrix_cells, _simulate_layer),
        ("sweep_fig13_mini", matrix_cells * len(configs), _sweep),
    ]


def _scenario_benches(sizes: Dict[str, int], seed: int) -> List[Tuple[str, int, Callable[[], None]]]:
    """Scenario-family generation benches, one per workload family.

    Each times the full lowering path ``build_scenario`` runs under the
    TBS regime -- synthetic weights, the family's structural transform
    (stencil tap structure / MoE block-diagonal combine / inference
    projections) and the pattern projection -- at the profile's pinned
    ``scenario_scale``, so a regression in any family's generator shows
    up before the ``run_scenarios`` sweep does.  Every memo is emptied
    before each call, or repeated calls would time weight-memo hits.
    """
    from ..sim.engine import clear_cost_memo
    from ..workloads.scenarios import SCENARIO_FAMILIES, build_scenario

    scale = sizes["scenario_scale"]

    def _build(family: str) -> None:
        clear_cost_memo()
        build_scenario(family, "TBS", seed=seed, scale=scale)

    benches: List[Tuple[str, int, Callable[[], None]]] = []
    for family in SCENARIO_FAMILIES:
        bundle = build_scenario(family, "TBS", seed=seed, scale=scale)
        cells = sum(wl.values.size for wl in bundle.layers) + bundle.format_workload.values.size
        benches.append((f"scenario_{family}", int(cells), lambda family=family: _build(family)))
    return benches


def _nn_benches(sizes: Dict[str, int], seed: int) -> List[Tuple[str, int, Callable[[], None]]]:
    """Training and evaluation benches on Table I's CNN proxy.

    ``nn_train_step_cnn`` times one forward, backward and SGD step on a
    batch of 64 (the batch ``train`` uses); ``nn_evaluate_cnn`` times
    ``evaluate`` on the proxy's 80-sample test split.  The model and data
    are the ones Table I trains, in every profile, so the shapes are
    pinned by the experiment rather than by ``sizes``.
    """
    from ..analysis.experiments import _proxy
    from ..nn.losses import softmax_cross_entropy
    from ..nn.optim import SGD
    from ..nn.train import evaluate

    model, (train_x, train_y, test_x, test_y) = _proxy("cnn", seed)
    opt = SGD(model, lr=0.05, momentum=0.9, weight_decay=5e-4)
    x, y = train_x[:64], train_y[:64]

    def _train_step() -> None:
        opt.zero_grad()
        _, dlogits = softmax_cross_entropy(model(x), y)
        model.backward(dlogits)
        opt.step()

    return [
        ("nn_train_step_cnn", int(x.size), _train_step),
        ("nn_evaluate_cnn", int(test_x.size), lambda: evaluate(model, test_x, test_y)),
    ]


def _all_benches(sizes: Dict[str, int], seed: int) -> List[Tuple[str, int, Callable[[], None]]]:
    """The whole suite, in its canonical order."""
    return (
        _micro_benches(sizes, seed)
        + _tsolver_benches(sizes, seed)
        + _scenario_benches(sizes, seed)
        + _macro_benches(sizes, seed)
        + _nn_benches(sizes, seed)
    )


def _time_bench(
    fn: Callable[[], None], cells: int, reps: int, calibration_s: float
) -> Tuple[Dict, float]:
    """Warm up, autorange, and time one bench callable.

    Returns the per-bench record (without ``stages``) plus the total
    wall time spent (the suite's ``total_wall_s`` contribution).  Shared
    by the serial suite loop and the per-bench worker cell, so both
    measure identically.
    """
    # Warm-up excludes one-time allocation/import effects and
    # sizes the autorange: sub-millisecond callables are pure
    # timer noise at +/-25%, so each rep loops the callable until
    # it accumulates at least _MIN_REP_S of measured work.
    t0 = time.perf_counter()
    fn()
    warm = time.perf_counter() - t0
    inner = max(1, min(_MAX_INNER, int(math.ceil(_MIN_REP_S / max(warm, 1e-9)))))
    rep_times: List[float] = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        rep_times.append((time.perf_counter() - t0) / inner)
    # min-of-reps: scheduling noise only ever adds time, so the
    # fastest rep is the best estimate of the true cost.
    wall = min(rep_times)
    record = {
        "wall_s": wall,
        "normalized": wall / calibration_s,
        "cells": int(cells),
        "cells_per_s": cells / wall if wall > 0 else float("inf"),
    }
    return record, sum(t * inner for t in rep_times)


def _stage_split(fn: Callable[[], None]) -> Dict[str, Dict[str, float]]:
    """The stage-timer records of one instrumented, untimed call of ``fn``."""
    events = obs.swap_buffer()
    try:
        with obs.enabled_scope():
            cap = obs.capture()
            with cap:
                fn()
    finally:
        obs.swap_buffer(events)
    return cap.timers


def _bench_cell(profile: str, seed: int, bench_name: str) -> Dict:
    """Run one named bench in this process (the sweep-engine cell body).

    Calibration runs here too: normalization must use a workload timed in
    the *same* process as the bench, or a loaded sibling worker would
    skew the ratio.  The calibration and spent-wall figures ride along in
    the record for the parent to fold into the suite payload.
    """
    sizes = PROFILES[profile]
    calibration_s = calibrate()
    suite = _all_benches(sizes, seed)
    for name_, cells, fn in suite:
        if name_ == bench_name:
            break
    else:
        raise ValueError(f"unknown bench {bench_name!r}")
    record, spent = _time_bench(fn, cells, sizes["reps"], calibration_s)
    record["stages"] = _stage_split(fn)
    record["calibration_s"] = calibration_s
    record["spent_wall_s"] = spent
    record["peak_rss_kb"] = peak_rss_kb()
    return record


def run_suite(
    profile: str = "quick",
    seed: int = 0,
    name: str = "baseline",
    workers: Optional[int] = None,
    options=None,
) -> Dict:
    """Run the full bench suite and return the BENCH json payload.

    ``workers > 1`` shards the benches across a process pool via the
    sweep engine: each worker calibrates itself and times its benches
    in-process, so normalized figures stay meaningful; ``workers=1``
    (the default) is the historical in-process loop, byte-identical in
    schema and measurement procedure.
    """
    from ..sweep import SweepCell, SweepSpec, configured_workers, run_sweep

    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    sizes = PROFILES[profile]
    reps = sizes["reps"]
    n_workers = configured_workers(workers)

    benches: Dict[str, Dict] = {}
    total = 0.0
    if n_workers > 1:
        bench_names = [b[0] for b in _all_benches(sizes, seed)]
        sweep = run_sweep(
            SweepSpec(
                f"perf-{profile}",
                tuple(
                    SweepCell(
                        key=bench_name,
                        fn=_bench_cell,
                        kwargs={"profile": profile, "seed": seed, "bench_name": bench_name},
                    )
                    for bench_name in bench_names
                ),
            ),
            workers=n_workers,
            strict=True,
            options=options,
        )
        calibrations: List[float] = []
        rss = peak_rss_kb()
        for bench_name in bench_names:
            record = dict(sweep.value(bench_name))
            calibrations.append(record.pop("calibration_s"))
            total += record.pop("spent_wall_s")
            rss = max(rss, record.pop("peak_rss_kb"))
            benches[bench_name] = record
        calibration_s = min(calibrations)
        peak_rss = rss
    else:
        calibration_s = calibrate()
        suite = _all_benches(sizes, seed)
        for bench_name, cells, fn in suite:
            record, spent = _time_bench(fn, cells, reps, calibration_s)
            total += spent
            benches[bench_name] = record
        # Instrumented calls only after every bench is timed, so none
        # runs between two timed benches.
        for bench_name, _, fn in suite:
            benches[bench_name]["stages"] = _stage_split(fn)
        peak_rss = peak_rss_kb()

    return {
        "schema": SCHEMA_VERSION,
        "name": name,
        "profile": profile,
        "seed": seed,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "calibration_s": calibration_s,
        "benches": benches,
        "total_wall_s": total,
        "peak_rss_kb": peak_rss,
    }


def merge_best(a: Dict, b: Dict) -> Dict:
    """Merge two suite runs, keeping the faster record per bench.

    Noise from a loaded machine only ever adds time, so the per-bench
    minimum over several rounds is the best estimate of true cost.  Each
    bench's whole record is taken from the round with the lower
    ``normalized`` figure so its fields stay mutually consistent.
    """
    merged = dict(a)
    merged["benches"] = dict(a["benches"])
    for bench_name, rec in b["benches"].items():
        cur = merged["benches"].get(bench_name)
        if cur is None or rec["normalized"] < cur["normalized"]:
            merged["benches"][bench_name] = rec
    merged["calibration_s"] = min(a["calibration_s"], b["calibration_s"])
    merged["total_wall_s"] = a["total_wall_s"] + b["total_wall_s"]
    merged["peak_rss_kb"] = max(a["peak_rss_kb"], b["peak_rss_kb"])
    return merged


def run_suite_best(
    profile: str = "quick",
    seed: int = 0,
    name: str = "baseline",
    rounds: int = 1,
    workers: Optional[int] = None,
    options=None,
) -> Dict:
    """Run the suite ``rounds`` times and keep the per-bench best.

    ``options`` (a :class:`repro.sweep.SweepOptions`) threads the
    supervised-executor knobs through the sharded (``workers > 1``)
    path; the serial path has no sweep to configure.
    """
    data = run_suite(profile, seed, name, workers=workers, options=options)
    for _ in range(max(0, rounds - 1)):
        data = merge_best(data, run_suite(profile, seed, name, workers=workers, options=options))
    return data


# ---------------------------------------------------------------------------
# persistence + regression gate
# ---------------------------------------------------------------------------


def write_bench_json(path: str, data: Dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bench_json(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: bench schema {data.get('schema')!r} != supported {SCHEMA_VERSION}"
        )
    return data


def compare(
    current: Dict, baseline: Dict, tolerance: float = 0.25
) -> Tuple[List[str], List[str]]:
    """One-sided regression gate on normalized bench times.

    Returns ``(failures, report_lines)``.  A bench fails when its
    normalized time exceeds the baseline's by more than ``tolerance``
    (speed-ups never fail), and when it is in the baseline but not in
    this run: a change that retires or renames a bench deletes its
    baseline entry in the same commit.  A bench only in this run is
    reported and passes.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    failures: List[str] = []
    lines: List[str] = []
    base_benches = baseline.get("benches", {})
    cur_benches = current.get("benches", {})
    for bench_name in sorted(set(base_benches) | set(cur_benches)):
        cur = cur_benches.get(bench_name)
        base = base_benches.get(bench_name)
        if cur is None:
            lines.append(f"  {bench_name:<24} only in baseline  MISSING")
            failures.append(
                f"{bench_name}: in the baseline but not run (delete its baseline "
                "entry with the bench)"
            )
            continue
        if base is None:
            lines.append(f"  {bench_name:<24} new bench ({cur['normalized']:.3f} normalized)")
            continue
        base_norm = base["normalized"]
        ratio = cur["normalized"] / base_norm if base_norm > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSION"
            failures.append(
                f"{bench_name}: {ratio:.2f}x baseline (normalized "
                f"{cur['normalized']:.3f} vs {base_norm:.3f}, gate {1.0 + tolerance:.2f}x)"
            )
        lines.append(
            f"  {bench_name:<24} {ratio:5.2f}x vs baseline "
            f"({cur['wall_s'] * 1e3:8.2f} ms local)  {verdict}"
        )
    return failures, lines


def append_trajectory(path: str, entry: Dict) -> None:
    """Append one JSON line to the bench trajectory file."""
    with open(path, "a", encoding="utf-8") as fh:
        json.dump(entry, fh, sort_keys=True)
        fh.write("\n")
