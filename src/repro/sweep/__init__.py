"""Sharded parallel sweep execution (the engine under ``repro report``).

Every paper artifact is a grid of independent cells -- ``(task, seed,
family, criterion)`` for the accuracy tables, ``(model, arch)`` for the
end-to-end sweeps, ``(format, fault model)`` for the fault campaigns.
This package turns those serial ``for`` nests into declarative
:class:`~repro.sweep.spec.SweepSpec` objects executed by
:func:`~repro.sweep.engine.run_sweep`:

* **sharding** -- cells run across a ``multiprocessing`` worker pool;
  ``workers=1`` executes inline and reproduces the serial numbers
  bit-exactly (aggregation always walks cells in spec order, never in
  completion order);
* **determinism** -- every cell carries its seeds explicitly in its
  kwargs (and may add a :func:`~repro.sweep.spec.derive_seed`-derived
  ambient seed), so results do not depend on which worker ran it;
* **caching** -- completed cells are pickled content-addressed under a
  :class:`~repro.runtime.cellcache.CellCache` directory, so re-runs and
  ``--resume`` after a killed sweep replay finished cells from disk;
* **fault isolation** -- a cell that raises yields a structured
  :class:`~repro.sweep.engine.SweepCellResult` (error type, message,
  traceback) and never kills the sweep;
* **supervision** -- the :mod:`~repro.sweep.executors` layer runs one
  process per in-flight cell, classifies worker death as ``crashed``
  and deadline overruns as ``timeout``, retries exactly those transient
  outcomes under a deterministic :class:`~repro.sweep.executors
  .RetryPolicy`, and degrades to inline serial execution after repeated
  consecutive crashes (circuit breaker) -- a SIGKILLed or hung worker
  never stalls or unwinds the sweep.
"""

from .engine import (
    CELL_STATUSES,
    SweepCancelled,
    SweepCellResult,
    SweepCellsFailed,
    SweepError,
    SweepResult,
    configured_workers,
    default_workers,
    run_sweep,
)
from .executors import (
    EXECUTOR_NAMES,
    Executor,
    RetryPolicy,
    SerialExecutor,
    SupervisedProcessExecutor,
    Supervisor,
)
from .options import SweepOptions
from .spec import SweepCell, SweepSpec, derive_seed, fn_ref, resolve_fn

__all__ = [
    "CELL_STATUSES",
    "EXECUTOR_NAMES",
    "Executor",
    "RetryPolicy",
    "SerialExecutor",
    "SupervisedProcessExecutor",
    "Supervisor",
    "SweepCancelled",
    "SweepCell",
    "SweepCellResult",
    "SweepCellsFailed",
    "SweepError",
    "SweepOptions",
    "SweepResult",
    "SweepSpec",
    "configured_workers",
    "default_workers",
    "derive_seed",
    "fn_ref",
    "resolve_fn",
    "run_sweep",
]
