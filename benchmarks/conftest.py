"""Shared benchmark configuration.

Every benchmark regenerates one paper table/figure: it runs the
experiment driver once (timed by pytest-benchmark), prints the rows the
paper reports, and asserts the qualitative shape (who wins, roughly by
how much).  Absolute numbers differ from the paper -- our substrate is a
Python model, not the authors' RTL/testbed -- but orderings and
crossovers are asserted.

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import os
import time

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--perf-record",
        default=None,
        metavar="JSONL",
        help="append each figure benchmark's wall time to this bench-trajectory file",
    )
    parser.addoption(
        "--sweep-workers",
        type=int,
        default=None,
        metavar="N",
        help="shard grid-shaped experiment drivers across N worker processes "
        "(sets REPRO_SWEEP_WORKERS; results are identical at any N)",
    )


def pytest_configure(config):
    workers = config.getoption("--sweep-workers")
    if workers:
        os.environ["REPRO_SWEEP_WORKERS"] = str(workers)


@pytest.fixture
def once(benchmark, request):
    """Time one full run of ``fn(*args, **kwargs)`` (no warm-up repetition)."""
    record_path = request.config.getoption("--perf-record")

    def _runner(fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
        if record_path:
            from repro.perf.bench import append_trajectory
            from repro.sweep import configured_workers

            append_trajectory(
                record_path,
                {
                    "kind": "figure-benchmark",
                    "test": request.node.nodeid,
                    "fn": getattr(fn, "__name__", "bench"),
                    "wall_s": time.perf_counter() - t0,
                    "workers": configured_workers(),
                },
            )
        return result

    return _runner
