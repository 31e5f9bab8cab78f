"""Resilient-execution layer: checkpoints, watchdog, invariants, cell cache.

Long TB-STC reproductions (sparse training sweeps, ``repro report all``)
must survive crashes, divergence, and partial failures.  This package
provides the pieces the rest of the stack wires in:

* :mod:`~repro.runtime.state`      -- bit-exact capture/restore of model,
  optimizer, mask and RNG state;
* :mod:`~repro.runtime.checkpoint` -- content-addressed, atomically
  written ``.npz`` snapshots with corruption-tolerant loading;
* :mod:`~repro.runtime.watchdog`   -- NaN/Inf/loss-spike detection with
  bounded rollback + learning-rate backoff;
* :mod:`~repro.runtime.checks`     -- configurable mask/format invariant
  checking (``off`` / ``warn`` / ``strict``);
* :mod:`~repro.runtime.cellcache`  -- the content-addressed on-disk
  result cache under every sweep cell (:mod:`repro.sweep`).
"""

from .checkpoint import CheckpointError, CheckpointStore
from .checks import (
    CHECK_LEVELS,
    InvariantError,
    InvariantWarning,
    check_format_roundtrip,
    check_level,
    check_mask,
    check_workload,
    get_check_level,
    reset_warning_counts,
    set_check_level,
    warning_counts,
)
from .state import (
    TrainState,
    capture_train_state,
    restore_train_state,
)
from .watchdog import DivergenceWatchdog, WatchdogConfig, WatchdogEvent

__all__ = [
    "CHECK_LEVELS",
    "CheckpointError",
    "CheckpointStore",
    "DivergenceWatchdog",
    "InvariantError",
    "InvariantWarning",
    "TrainState",
    "WatchdogConfig",
    "WatchdogEvent",
    "capture_train_state",
    "check_format_roundtrip",
    "check_level",
    "check_mask",
    "check_workload",
    "get_check_level",
    "reset_warning_counts",
    "restore_train_state",
    "set_check_level",
    "warning_counts",
]
