"""Command-line interface: ``python -m repro <command> ...``.

Six commands:

* ``report`` -- run one (or all) of the paper's experiments and print
  its table(s); experiment names follow the paper (``table1`` ...
  ``fig18``).  It is the one command that runs a paper experiment:
  every experiment goes through the sweep engine (:mod:`repro.sweep`),
  grid-shaped ones (fig1 and fig18 included) one cell per grid point
  and single-shot ones as a one-cell sweep.  A failed experiment does
  not stop the ones after it; ``--checkpoint-dir``/``--resume`` cache
  finished cells on disk and recompute only the missing ones -- a
  trained model is one cell shared by Table I, Fig. 1, Fig. 15(a) and
  Fig. 18, so ``report all`` trains it once; ``--workers N`` shards the
  cells across processes without changing the numbers; ``--json`` prints the
  raw data instead of the rendered tables; ``--trace PATH`` writes a
  Chrome ``trace_event`` JSON viewable in Perfetto.
* ``prune`` -- prune a ``.npy`` weight matrix with any pattern family
  and write the boolean mask next to it.
* ``simulate`` -- simulate one GEMM layer on a chosen architecture;
  ``--json`` emits the versioned :meth:`SimResult.to_dict` payload.
* ``faults`` -- run a seeded Monte-Carlo fault-injection campaign
  (:mod:`repro.faults`) over storage formats x fault models and print
  the per-cell SDC-rate / detection-coverage table.  ``--ecc parity``
  or ``--ecc secded`` protects format metadata and also prints the
  protection's storage and energy overhead on a reference layer;
  ``--workers N`` shards the campaign cells.
* ``perf`` -- run the deterministic benchmark suite
  (:mod:`repro.perf.bench`) and write ``BENCH_<name>.json``; writing
  ``BENCH_baseline.json`` also appends its row to
  ``BENCH_trajectory.jsonl`` beside it;
  ``--compare BENCH_baseline.json`` turns it into a regression gate
  (exit 1 when any bench exceeds the baseline by ``--tolerance``, or
  when a baseline bench is missing from the run).
* ``serve`` -- run the durable simulation service (:mod:`repro.service`):
  an HTTP job server with idempotent submission, crash recovery from a
  SQLite run store, per-client rate limiting with 429 + ``Retry-After``
  load shedding, and graceful SIGTERM drain that re-queues in-flight
  jobs as resumable.

``report`` and ``faults`` exit **1** when any cell ends ``failed``,
``crashed`` or ``timeout`` (usage errors exit 2); ``--allow-partial``
downgrades cell failures to a stderr warning, prints the partial data,
and exits 0.

``--metrics PATH`` (report/faults) enables the observability layer for
the run and writes its merged counter/gauge/histogram registry --
deterministic and byte-identical at any ``--workers N`` -- to ``PATH``
as JSON.

``--executor {auto,serial,supervised}``, ``--timeout S`` and
``--retries N`` (report/faults/perf/serve) select the sweep execution
backend (:mod:`repro.sweep.executors`): the supervised executor runs
one process per in-flight cell, classifies worker death as ``crashed``
and deadline overruns as ``timeout``, and retries exactly those
transient outcomes up to N extra attempts (default 0) with
deterministic backoff.  Deterministic failures (a cell that raises) are
never retried, and retried results are byte-identical to a clean serial
run.

``--checks {off,warn,strict}`` (all commands) selects the runtime
invariant level (:mod:`repro.runtime.checks`); under ``strict``,
invalid masks or storage-format round-trip failures abort instead of
propagating silently.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]

#: Experiment names, duplicated from the keys of ``repro.analysis
#: .experiments.EXPERIMENTS`` so building the parser never imports the (heavy)
#: analysis stack; ``tests/test_cli.py`` asserts the two stay in sync.
_EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig4",
    "fig6",
    "fig7",
    "fig7both",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "wide",
    "scenarios",
)

#: Scenario workload families, duplicated from ``repro.workloads
#: .scenarios.SCENARIO_FAMILIES`` for the same lazy-import reason (the
#: sync is asserted in ``tests/test_cli.py``).  ``--families`` choices
#: are NOT restricted at parse time: the driver's own one-line error
#: (exit 1) covers typos.
_SCENARIO_FAMILIES = ("stencil", "moe", "inference24")

#: Transposable-mask solver backends, duplicated from
#: ``repro.core.tsolvers.TSOLVER_NAMES`` for the same lazy-import reason.
_TSOLVERS = ("greedy", "exact", "tsenor")

#: Storage formats, duplicated from ``repro.formats.registry
#: .available_formats()`` for the same lazy-import reason (the sync is
#: asserted in ``tests/test_cli.py``).
_FORMAT_NAMES = ("dense", "csr", "sdc", "ddc", "bitmap", "bcsrcoo")

#: Consumption orientations, duplicated from ``repro.formats.base
#: .ORIENTATIONS`` (same lazy-import reason, same sync test).
_ORIENTATIONS = ("forward", "transposed")


def _add_checks_flags(cmd: argparse.ArgumentParser, help_text: str, default=None) -> None:
    """The ``--checks {off,warn,strict}`` flag."""
    cmd.add_argument(
        "--checks", default=default, choices=["off", "warn", "strict"], help=help_text
    )


def _add_workers_flag(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for sweep sharding "
        "(default: $REPRO_SWEEP_WORKERS or 1; results are identical at any N)",
    )


def _add_supervision_flags(cmd: argparse.ArgumentParser) -> None:
    """``--executor``/``--timeout``/``--retries`` for the sweep supervision layer."""
    cmd.add_argument(
        "--executor", default=None, choices=["auto", "serial", "supervised"],
        help="sweep execution backend: 'serial' runs cells inline, "
        "'supervised' runs one process per in-flight cell (worker death -> "
        "crashed, deadline overrun -> timeout); 'auto' (default) picks "
        "serial at --workers 1 and supervised otherwise",
    )
    cmd.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-cell deadline in seconds; an overrunning worker is killed "
        "and the cell classified 'timeout' (supervised executor only)",
    )
    cmd.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts per sweep cell after a transient "
        "crashed/timeout outcome (deterministic failures are never "
        "retried; default: 0)",
    )


def _add_metrics_flag(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="enable the observability layer and write its merged "
        "deterministic metrics (counters/gauges/histograms) to PATH as "
        "JSON; byte-identical at any --workers N",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TB-STC (HPCA 2025) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="run a paper experiment and print its table")
    report.add_argument("experiment", choices=_EXPERIMENTS + ("all",))
    report.add_argument("--seeds", type=int, default=1, help="number of seeds for accuracy runs")
    report.add_argument("--epochs", type=int, default=8, help="training epochs for accuracy runs")
    report.add_argument("--scale", type=int, default=4, help="layer down-scaling for simulator runs")
    _add_workers_flag(report)
    report.add_argument(
        "--checkpoint-dir", default=None,
        help="cache every finished experiment cell here (enables crash recovery)",
    )
    report.add_argument(
        "--resume", action="store_true",
        help="serve cells already cached in --checkpoint-dir instead of recomputing",
    )
    report.add_argument(
        "--families", nargs="+", default=None, metavar="FAMILY",
        help="workload families for the 'scenarios' experiment "
        f"(default: all: {', '.join(_SCENARIO_FAMILIES)}; other "
        "experiments ignore it)",
    )
    report.add_argument(
        "--json", action="store_true",
        help="print the raw experiment data as JSON instead of the rendered tables",
    )
    report.add_argument(
        "--allow-partial", action="store_true",
        help="exit 0 even when cells fail: warn on stderr, print the "
        "settled cells' raw values as JSON (default: cell failures exit 1)",
    )
    report.add_argument(
        "--trace", default=None, metavar="PATH",
        help="enable the observability layer and write a Chrome trace_event "
        "JSON to PATH, viewable in Perfetto / chrome://tracing",
    )
    _add_supervision_flags(report)
    _add_metrics_flag(report)
    _add_checks_flags(report, "runtime invariant level for mask/format checking")

    prune = sub.add_parser("prune", help="prune a .npy weight matrix")
    prune.add_argument("weights", help="path to a 2-D .npy array")
    prune.add_argument(
        "--pattern", default="TBS", choices=["US", "TS", "RS_V", "RS_H", "TBS", "NMT"]
    )
    prune.add_argument("--sparsity", type=float, default=0.5)
    prune.add_argument("--m", type=int, default=8)
    prune.add_argument(
        "--tsolver", default=None, choices=list(_TSOLVERS),
        help="transposable-mask solver backend for --pattern NMT "
        "(default: $REPRO_TSOLVER or greedy; other patterns ignore it)",
    )
    prune.add_argument("--out", default=None, help="output mask path (default: <weights>.mask.npy)")
    _add_checks_flags(prune, "validate the generated mask against its pattern family")

    sim = sub.add_parser("simulate", help="simulate one sparse GEMM")
    sim.add_argument("--rows", type=int, required=True)
    sim.add_argument("--cols", type=int, required=True)
    sim.add_argument("--b-cols", type=int, required=True)
    sim.add_argument("--sparsity", type=float, default=0.75)
    sim.add_argument("--arch", default="TB-STC")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--tsolver", default=None, choices=list(_TSOLVERS),
        help="transposable-mask solver backend used if the workload's "
        "masks are built with the NMT family (default: $REPRO_TSOLVER "
        "or greedy)",
    )
    sim.add_argument(
        "--weight-bits", type=int, default=16,
        help="weight precision in bits (8 halves weight traffic; default: 16)",
    )
    sim.add_argument(
        "--orientation", default="forward", choices=list(_ORIENTATIONS),
        help="consumption orientation of the A operand: 'transposed' "
        "models the backward pass draining the transpose of the same "
        "stored encoding (default: forward)",
    )
    sim.add_argument(
        "--fault", default=None, choices=["values", "indices", "metadata"],
        help="inject one storage-side bitflip into this payload before decode",
    )
    sim.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the injected fault's position (default: 0)",
    )
    sim.add_argument(
        "--json", action="store_true",
        help="emit the versioned SimResult.to_dict() payload as JSON",
    )
    _add_checks_flags(sim, "validate the workload mask and storage-format round-trip")

    faults = sub.add_parser("faults", help="run a seeded fault-injection campaign")
    faults.add_argument("--seed", type=int, default=0, help="campaign master seed")
    faults.add_argument("--trials", type=int, default=30, help="injections per (format, model) cell")
    faults.add_argument(
        "--formats", nargs="+", default=None, metavar="FMT",
        choices=list(_FORMAT_NAMES),
        help=f"storage formats to stress (default: all registered: "
        f"{', '.join(_FORMAT_NAMES)})",
    )
    faults.add_argument(
        "--models", nargs="+", default=None, metavar="MODEL",
        help="fault models to sweep (default: all)",
    )
    faults.add_argument(
        "--ecc", default="none", choices=["none", "parity", "secded"],
        help="metadata protection to model (default: none)",
    )
    faults.add_argument("--rows", type=int, default=32)
    faults.add_argument("--cols", type=int, default=32)
    faults.add_argument("--m", type=int, default=8, help="block size M")
    faults.add_argument("--sparsity", type=float, default=0.75)
    _add_checks_flags(
        faults,
        "runtime invariant level the classification runs under (default: warn)",
        default="warn",
    )
    _add_workers_flag(faults)
    faults.add_argument(
        "--checkpoint-dir", default=None,
        help="cache completed campaign cells here (enables crash recovery)",
    )
    faults.add_argument(
        "--resume", action="store_true",
        help="serve cells already cached in --checkpoint-dir instead of recomputing",
    )
    faults.add_argument(
        "--json", action="store_true",
        help="emit the campaign spec and per-cell counts as JSON",
    )
    faults.add_argument(
        "--allow-partial", action="store_true",
        help="exit 0 even when campaign cells fail: warn on stderr and "
        "print the table over the cells that settled (default: cell "
        "failures exit 1)",
    )
    _add_supervision_flags(faults)
    _add_metrics_flag(faults)

    perf = sub.add_parser("perf", help="run the benchmark suite / regression gate")
    perf.add_argument(
        "--profile", default="full", choices=["smoke", "quick", "full"],
        help="bench sizes (default: full)",
    )
    perf.add_argument(
        "--quick", action="store_true",
        help="shorthand for --profile quick (the CI gate profile)",
    )
    perf.add_argument("--name", default="baseline", help="suffix for BENCH_<name>.json")
    perf.add_argument("--out-dir", default=".", help="directory for the BENCH json")
    perf.add_argument("--seed", type=int, default=0)
    _add_workers_flag(perf)
    perf.add_argument(
        "--compare", default=None, metavar="BASELINE_JSON",
        help="compare against this baseline; fail on a regression or a missing bench",
    )
    perf.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed normalized slowdown vs baseline (default: 0.25 = +25%%)",
    )
    perf.add_argument(
        "--trajectory", default=None, metavar="JSONL",
        help="append a summary line to this bench-trajectory file (a "
        "--name baseline run always appends one to BENCH_trajectory.jsonl "
        "in --out-dir)",
    )
    perf.add_argument(
        "--best-of", type=int, default=1, metavar="N",
        help="run the suite N times and keep the per-bench best "
        "(use for committed baselines; default: 1)",
    )
    _add_supervision_flags(perf)

    serve = sub.add_parser(
        "serve", help="run the durable simulation job service (repro.service)"
    )
    serve.add_argument(
        "--data-dir", required=True,
        help="service state directory: SQLite run store, shared cell "
        "cache, and the 'endpoint' file advertising the bound URL",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="TCP port; 0 picks a free one (default: 8765)",
    )
    serve.add_argument(
        "--job-workers", type=int, default=1, metavar="N",
        help="concurrent jobs (default: 1)",
    )
    serve.add_argument(
        "--sweep-workers", type=int, default=None, metavar="N",
        help="worker processes per job's sweep (default: $REPRO_SWEEP_WORKERS or 1)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=64,
        help="admission queue bound; beyond it submissions get 429 (default: 64)",
    )
    serve.add_argument(
        "--rate", type=float, default=10.0, metavar="R",
        help="per-client submissions/second (token bucket; 0 disables; default: 10)",
    )
    serve.add_argument(
        "--burst", type=float, default=20.0, metavar="B",
        help="per-client burst allowance (default: 20)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="S",
        help="seconds to wait for running jobs to checkpoint on SIGTERM "
        "(default: 30)",
    )
    serve.add_argument(
        "--allow-fn-prefix", action="append", default=None, metavar="PREFIX",
        help="additionally accept raw-spec job callables under this import "
        "prefix (repeatable; default: only 'repro.')",
    )
    _add_supervision_flags(serve)
    return parser


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write_metrics_file(path: str) -> None:
    """Dump the ambient observability registry's deterministic view."""
    import json

    from . import obs

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obs.metrics_dict(deterministic_only=True), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _with_obs(args, body) -> int:
    """Run ``body`` with observability on when ``--metrics`` or ``--trace``
    was given.

    The registry and trace buffer are reset first so the files reflect
    exactly this invocation; they are written even when the command
    fails, so a partial run still leaves forensics behind.
    """
    metrics = getattr(args, "metrics", None)
    trace = getattr(args, "trace", None)
    if not (metrics or trace):
        return body()
    from . import obs

    obs.reset()
    with obs.enabled_scope():
        rc = body()
        if trace:
            events = len(obs.to_chrome_trace()["traceEvents"])
            try:
                obs.write_chrome_trace(trace)
            except OSError as exc:
                return _fail(f"cannot write trace to {trace!r}: {exc}")
        if metrics:
            try:
                _write_metrics_file(metrics)
            except OSError as exc:
                return _fail(f"cannot write metrics to {metrics!r}: {exc}")
    if trace:
        print(f"[repro] trace: {events} events -> {trace}",
              file=sys.stderr if args.json else sys.stdout)
    if metrics:
        print(f"[repro] metrics -> {metrics}", file=sys.stderr)
    return rc


def _sweep_options(args, progress=None):
    """Build the :class:`repro.sweep.SweepOptions` a command's supervision
    flags describe; raises ``ValueError`` on invalid combinations."""
    from .sweep import SweepOptions

    return SweepOptions(
        executor=args.executor, timeout=args.timeout, retries=args.retries,
        progress=progress,
    )


def _warn_cell_failures(failures) -> None:
    """One stderr line per failed sweep cell (status + first error line)."""
    for cell in failures:
        error = (cell.error or "").splitlines() or [""]
        print(f"error: cell {cell.key}: {cell.status}: {error[0]}", file=sys.stderr)


def _check_sparsity(value: float) -> Optional[str]:
    if not 0.0 <= value < 1.0:
        return f"sparsity must be in [0, 1), got {value}"
    return None


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _render_report(experiment: str, res) -> None:
    """Print one experiment's computed data the way the paper tables read."""
    from .analysis import render_dict_table, render_table

    if experiment == "table1":
        print(render_dict_table(res, key_header="proxy"))
    elif experiment == "table2":
        print(render_dict_table(res, key_header="proxy/criterion"))
    elif experiment == "table3":
        print(render_dict_table(
            {"area_mm2": res["area_mm2"], "power_mw": res["power_mw"]}, key_header="metric"
        ))
    elif experiment == "fig1":
        print(render_table(
            ["design", "EDP", "accuracy"],
            [[p.label, f"{p.cost:.3e}", f"{p.quality:.3f}"] for p in res["points"]],
        ))
        print("frontier:", [p.label for p in res["frontier"]])
    elif experiment == "fig4":
        print(render_dict_table(
            {"similarity_vs_US": res["similarity"], "log2_maskspace": res["log2_maskspace"]},
            key_header="metric",
        ))
    elif experiment == "fig6":
        print(res)
    elif experiment == "fig7":
        print(render_dict_table(res, key_header="workload"))
    elif experiment == "fig7both":
        print(render_dict_table(res, key_header="sparsity/format"))
    elif experiment == "fig12":
        for layer, table in res.items():
            print(render_dict_table(table, key_header=layer))
    elif experiment == "fig13":
        for model, table in res.items():
            print(render_dict_table(table, key_header=model))
    elif experiment == "fig14":
        print(render_dict_table(res, key_header="layer"))
    elif experiment == "fig15":
        print(render_dict_table(
            {f"M={m}": row for m, row in res["block_size"].items()}, key_header="block"
        ))
        print("quantization:", res["quantization"])
        print("bandwidth:", res["bandwidth"])
        print(render_dict_table(
            {f"{s:.0%}": row for s, row in res["sparsity_sweep"].items()}, key_header="sparsity"
        ))
    elif experiment == "fig16":
        print("codec:", res["codec"])
        print(render_dict_table(res["scheduling"], key_header="metric"))
    elif experiment == "fig17":
        print(render_dict_table(res, key_header="layers"))
    elif experiment == "fig18":
        for name, series in res.items():
            print(name, [round(v, 3) for v in series])
    elif experiment == "wide":
        print(render_dict_table(res, key_header="scenario"))
    elif experiment == "scenarios":
        summary = {}
        traffic = {}
        for family, entry in res.items():
            row = {}
            for pattern, stats in entry["patterns"].items():
                row[f"{pattern}_cycles"] = stats["cycles"]
            for pattern, value in entry.get("speedup_vs_dense", {}).items():
                if pattern != "dense":
                    row[f"{pattern}_speedup"] = value
            row["winner"] = entry["cycle_winner"]
            summary[family] = row
            for fmt, orients in entry["formats"].items():
                for orient, fetched in orients.items():
                    traffic[f"{family}/{fmt}/{orient}"] = dict(fetched)
        print(render_dict_table(summary, key_header="family"))
        print(render_dict_table(traffic, key_header="family/format/orientation"))
    else:  # pragma: no cover - choices restrict this
        raise ValueError(experiment)


def _run_report(args) -> int:
    import json

    from .analysis.experiments import run_experiment
    from .sweep import SweepError, configured_workers

    if args.seeds < 1:
        return _fail(f"--seeds must be >= 1, got {args.seeds}")
    if args.resume and not args.checkpoint_dir:
        return _fail("--resume requires --checkpoint-dir")
    settled: List[str] = []  # statuses of the current experiment's cells
    try:
        workers = configured_workers(args.workers)
        options = _sweep_options(
            args, progress=lambda cell, done, total: settled.append(cell.status)
        )
    except (ValueError, SweepError) as exc:
        return _fail(str(exc))

    names = _EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    out = sys.stderr if args.json else sys.stdout  # --json: stdout is the payload
    counts = {"computed": 0, "from cache": 0, "failed": 0}
    payload = {}
    rc = 0
    for name in names:
        settled.clear()
        try:
            value = run_experiment(
                name=name,
                seeds=tuple(range(args.seeds)),
                epochs=args.epochs,
                scale=args.scale,
                workers=workers,
                cache_dir=args.checkpoint_dir,
                resume=args.resume,
                options=options,
                families=tuple(args.families) if args.families else None,
            )
            error = None
        except Exception as exc:  # noqa: BLE001 - one experiment must not stop the rest
            value, error = None, exc
        cached = error is None and settled and all(s == "cached" for s in settled)
        print(f"\n--- {name}{' (cached)' if cached else ''} ---", file=out)
        if error is None:
            counts["from cache" if cached else "computed"] += 1
        else:
            counts["failed"] += 1
            value = _report_failure(name, error, args.allow_partial)
            if value is None:
                rc = 1
                continue
        if args.json:
            payload[name] = value
        elif error is not None:
            print(json.dumps(value, sort_keys=True, default=repr))
        else:
            _render_report(name, value)
    if args.json:
        print(json.dumps(
            payload[names[0]] if len(names) == 1 and names[0] in payload else payload,
            sort_keys=True, default=repr,
        ))
    if len(names) > 1:
        summary = ", ".join(f"{n} {what}" for what, n in counts.items())
        print(f"\n[repro] {summary}", file=out)
    return rc


def _report_failure(name: str, exc: Exception, allow_partial: bool):
    """Say on stderr why experiment ``name`` failed.

    Returns the partial data to print in place of its table -- the
    settled cells' raw values, under ``--allow-partial`` when only cells
    failed -- or None when the failure counts against the exit code.
    """
    from .sweep import SweepCellsFailed

    if not isinstance(exc, SweepCellsFailed):
        if isinstance(exc, ValueError):  # driver-level validation, e.g. --families
            print(f"error: {exc}", file=sys.stderr)
        else:
            print(f"error: {name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None
    _warn_cell_failures(exc.failures)
    if not allow_partial:
        print(f"error: {exc}", file=sys.stderr)
        return None
    partial = exc.result.values() if exc.result is not None else {}
    print(
        f"[repro] --allow-partial: {len(exc.failures)} cell(s) failed; "
        f"printing {len(partial)} settled cell value(s)",
        file=sys.stderr,
    )
    return partial


# ---------------------------------------------------------------------------
# prune / simulate
# ---------------------------------------------------------------------------


def _run_prune(args) -> int:
    from .core.masks import make_mask
    from .core.patterns import PatternFamily, PatternSpec
    from .core.sparsify import tbs_sparsify

    bad = _check_sparsity(args.sparsity)
    if bad:
        return _fail(bad)
    if args.m < 1:
        return _fail(f"--m must be >= 1, got {args.m}")
    try:
        weights = np.load(args.weights)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read weights {args.weights!r}: {exc}")
    if weights.ndim != 2:
        return _fail(f"expected a 2-D array, got shape {weights.shape}")
    family = PatternFamily[args.pattern]
    if family is PatternFamily.TBS:
        result = tbs_sparsify(weights, m=args.m, sparsity=args.sparsity)
        mask = result.mask
        extra = f", directions {result.direction_histogram()}"
    elif family is PatternFamily.NMT:
        from .core.transposable import transposable_sparsify
        from .core.tsolvers import resolve_tsolver

        mask, _ = transposable_sparsify(
            weights, m=args.m, sparsity=args.sparsity, backend=args.tsolver
        )
        extra = f", solver {resolve_tsolver(args.tsolver)}"
    else:
        mask = make_mask(weights, PatternSpec(family, m=args.m, sparsity=args.sparsity))
        extra = ""
    out = args.out or args.weights.replace(".npy", "") + ".mask.npy"
    try:
        np.save(out, mask)
    except OSError as exc:
        return _fail(f"cannot write mask to {out!r}: {exc}")
    print(f"{args.pattern} mask: sparsity {1 - mask.mean():.1%}{extra} -> {out}")
    return 0


def _run_simulate(args) -> int:
    import json

    from .core.patterns import PatternFamily
    from .sim.baselines import ARCH_FAMILY, arch_by_name, simulate_arch
    from .sim.options import SimOptions
    from .workloads.generator import build_workload
    from .workloads.layers import LayerSpec

    bad = _check_sparsity(args.sparsity)
    if bad:
        return _fail(bad)
    if min(args.rows, args.cols, args.b_cols) < 1:
        return _fail("--rows, --cols and --b-cols must all be >= 1")
    try:
        config = arch_by_name(args.arch)
        options = SimOptions(
            weight_bits=args.weight_bits, fault=args.fault,
            fault_seed=args.fault_seed, tsolver=args.tsolver,
            orientation=args.orientation,
        )
    except ValueError as exc:
        return _fail(str(exc))
    family = ARCH_FAMILY.get(args.arch, PatternFamily.TBS)
    layer = LayerSpec("cli", args.rows, args.cols, args.b_cols)
    workload = build_workload(
        layer, family, args.sparsity, seed=args.seed, tsolver=args.tsolver
    )
    result = simulate_arch(config, workload, options=options)
    if args.json:
        print(json.dumps(result.to_dict(), sort_keys=True))
        return 0
    print(f"{args.arch} on {args.rows}x{args.cols} @ K={args.b_cols}, "
          f"{family.name} {workload.sparsity:.1%} sparse:")
    print(f"  cycles        {result.cycles}")
    print(f"  energy        {result.energy.total_j * 1e6:.3f} uJ")
    print(f"  EDP           {result.edp:.4e} J*s")
    print(f"  compute util  {result.compute_utilization:.1%}")
    print(f"  bandwidth util {result.bandwidth_utilization:.1%}")
    return 0


def _run_faults(args) -> int:
    import json
    from dataclasses import asdict

    from .faults import CampaignSpec, ECCConfig, render_campaign, run_campaign
    from .sweep import SweepCellsFailed, SweepError, configured_workers

    bad = _check_sparsity(args.sparsity)
    if bad:
        return _fail(bad)
    if args.trials < 1:
        return _fail(f"--trials must be >= 1, got {args.trials}")
    ecc = ECCConfig(mode=args.ecc)
    try:
        spec_kwargs = dict(
            trials=args.trials, seed=args.seed, rows=args.rows, cols=args.cols,
            m=args.m, sparsity=args.sparsity, ecc=ecc, check_level=args.checks,
        )
        if args.formats:
            spec_kwargs["formats"] = tuple(args.formats)
        if args.models:
            spec_kwargs["models"] = tuple(args.models)
        spec = CampaignSpec(**spec_kwargs)
        workers = configured_workers(args.workers)
        options = _sweep_options(args)
    except (ValueError, SweepError) as exc:
        return _fail(str(exc))

    try:
        result = run_campaign(
            spec, workers=workers, cache_dir=args.checkpoint_dir,
            resume=args.resume, options=options,
            allow_partial=args.allow_partial,
        )
    except SweepCellsFailed as exc:
        _warn_cell_failures(exc.failures)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SweepError as exc:
        return _fail(str(exc))
    if result.failed_cells:
        # Only reachable with --allow-partial (strict raises otherwise).
        for key in result.failed_cells:
            print(f"warning: skipped failed cell {key}", file=sys.stderr)

    if args.json:
        print(json.dumps(
            {
                "spec": asdict(spec),
                "cells": [
                    {
                        "format": c.format_name,
                        "model": c.model,
                        "counts": c.counts,
                        "skipped": c.skipped,
                        "sdc_rate": c.sdc_rate,
                        "coverage": c.coverage,
                    }
                    for c in result.cells
                ],
            },
            sort_keys=True,
        ))
        return 0

    print(f"fault campaign: seed={spec.seed}, {spec.trials} trials/cell, "
          f"{spec.rows}x{spec.cols} TBS @ {spec.sparsity:.0%}, checks={spec.check_level}")
    print(render_campaign(result))
    if args.checkpoint_dir or workers > 1:
        print(f"[repro] {result.sweep_summary}")

    if ecc.enabled:
        _print_ecc_overheads(spec, ecc)
    return 0


def _print_ecc_overheads(spec, ecc) -> None:
    """What the protection costs: check-bit traffic + ECC energy on a
    reference TB-STC layer of the campaign's shape."""
    from .core.patterns import PatternFamily
    from .hw.config import tb_stc
    from .sim.engine import SimOptions, simulate
    from .workloads.generator import build_workload
    from .workloads.layers import LayerSpec

    layer = LayerSpec("ecc-ref", spec.rows, spec.cols, spec.cols)
    workload = build_workload(layer, PatternFamily.TBS, spec.sparsity, seed=spec.seed, m=spec.m)
    result = simulate(tb_stc(), workload, options=SimOptions(ecc=ecc))
    meta = result.breakdown["meta_bytes"]
    extra = result.breakdown["ecc_bytes"]
    ecc_pj = result.energy.components.get("ecc", 0.0)
    print(f"ecc overhead on {layer.rows}x{layer.cols} reference layer: "
          f"+{extra:.0f} B check bits on {meta:.0f} B metadata "
          f"({extra / meta:.1%} of metadata, "
          f"{extra / max(1.0, result.dram_bytes):.3%} of total traffic), "
          f"+{ecc_pj:.2f} pJ ECC energy")


def _run_perf(args) -> int:
    import os

    from .perf import bench

    if args.tolerance < 0:
        return _fail(f"--tolerance must be >= 0, got {args.tolerance}")
    if args.best_of < 1:
        return _fail(f"--best-of must be >= 1, got {args.best_of}")
    try:
        options = _sweep_options(args)
    except ValueError as exc:
        return _fail(str(exc))
    profile = "quick" if args.quick else args.profile
    data = bench.run_suite_best(
        profile=profile, seed=args.seed, name=args.name, rounds=args.best_of,
        workers=args.workers, options=options,
    )
    out_path = os.path.join(args.out_dir, f"BENCH_{args.name}.json")
    try:
        bench.write_bench_json(out_path, data)
    except OSError as exc:
        return _fail(f"cannot write {out_path!r}: {exc}")
    print(f"bench suite ({profile}, seed {args.seed}): "
          f"{len(data['benches'])} benches, {data['total_wall_s']:.2f} s total, "
          f"peak RSS {data['peak_rss_kb'] / 1024:.0f} MB -> {out_path}")

    trajectories = [args.trajectory] if args.trajectory else []
    if args.name == "baseline":
        # Every baseline write leaves its row in the trajectory beside it.
        trajectories.append(os.path.join(args.out_dir, "BENCH_trajectory.jsonl"))
    entry = {
        "name": args.name,
        "profile": profile,
        "total_wall_s": data["total_wall_s"],
        "calibration_s": data["calibration_s"],
        "normalized": {k: v["normalized"] for k, v in data["benches"].items()},
    }
    # One row per file, however it was named.
    for path in {os.path.realpath(p): p for p in trajectories}.values():
        try:
            bench.append_trajectory(path, entry)
        except OSError as exc:
            return _fail(f"cannot append to {path!r}: {exc}")
        print(f"appended trajectory entry to {path}")

    if args.compare:
        try:
            baseline = bench.load_bench_json(args.compare)
        except (OSError, ValueError, KeyError) as exc:
            return _fail(f"cannot load baseline {args.compare!r}: {exc}")
        failures, lines = bench.compare(data, baseline, tolerance=args.tolerance)
        missing = set(baseline.get("benches", {})) - set(data["benches"])
        if failures and not missing:
            # One retry filters scheduler noise on loaded CI machines: a
            # genuine regression slows every round, so only benches that
            # stay slow after merging in a second round's best fail.  A
            # missing bench fails the gate whatever a re-run measures.
            print("possible regression -- re-running suite once to filter noise")
            data = bench.merge_best(
                data,
                bench.run_suite(
                    profile=profile, seed=args.seed, name=args.name,
                    workers=args.workers, options=options,
                ),
            )
            try:
                bench.write_bench_json(out_path, data)
            except OSError as exc:
                return _fail(f"cannot write {out_path!r}: {exc}")
            failures, lines = bench.compare(data, baseline, tolerance=args.tolerance)
        print(f"vs {args.compare} (gate: {1 + args.tolerance:.2f}x normalized):")
        for line in lines:
            print(line)
        if failures:
            for failure in failures:
                print(f"error: perf gate: {failure}", file=sys.stderr)
            return 1
        print("perf gate passed")
    return 0


def _run_serve(args) -> int:
    from .service import ServiceConfig, SimService

    try:
        config = ServiceConfig(
            data_dir=args.data_dir,
            host=args.host,
            port=args.port,
            job_workers=args.job_workers,
            sweep_workers=args.sweep_workers,
            queue_size=args.queue_size,
            rate=args.rate or None,
            burst=args.burst or None,
            executor=args.executor,
            timeout=args.timeout,
            retries=args.retries,
            drain_timeout_s=args.drain_timeout,
            allow_fn_prefixes=("repro.", *(args.allow_fn_prefix or ())),
        )
        service = SimService(config)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    service.install_signal_handlers()
    try:
        host, port = service.start()
    except OSError as exc:
        return _fail(f"cannot bind {args.host}:{args.port}: {exc}")
    print(f"[repro] simulation service on http://{host}:{port} "
          f"(data dir {args.data_dir})", file=sys.stderr)
    service.serve_forever()  # returns after SIGTERM/SIGINT drain
    print("[repro] service drained; queued/running jobs are resumable",
          file=sys.stderr)
    return 0


def _dispatch(args) -> int:
    if args.command == "report":
        return _with_obs(args, lambda: _run_report(args))
    if args.command == "prune":
        return _run_prune(args)
    if args.command == "simulate":
        return _run_simulate(args)
    if args.command == "faults":
        return _with_obs(args, lambda: _run_faults(args))
    if args.command == "perf":
        return _run_perf(args)
    if args.command == "serve":
        return _run_serve(args)
    raise AssertionError("unreachable")  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # ``faults`` interprets --checks itself (the level the *campaign
    # classification* runs under, threaded through CampaignSpec); every
    # other command applies it as the ambient runtime invariant level.
    level = getattr(args, "checks", None)
    if level and args.command != "faults":
        from .runtime.checks import check_level

        with check_level(level):
            return _dispatch(args)
    return _dispatch(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
