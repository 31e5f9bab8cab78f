"""Deterministic chaos injection for the sweep engine's supervision layer.

The supervised executor (:mod:`repro.sweep.executors`) claims to survive
workers that die, hang, or raise.  This module is the harness that
*proves* it: a picklable cell wrapper (:func:`chaotic`) that, for a
deterministically-chosen subset of cells, misbehaves on the first ``N``
attempts -- ``os._exit`` (crash), sleep past the deadline (hang), raise
a :class:`ChaosError`, or return a corrupted value -- and then computes
the real cell value on later attempts.

Two invariants the harness exists to pin:

* **Determinism under retry** -- a chaos-ridden sweep with retries
  produces byte-identical :class:`~repro.sweep.engine.SweepResult`
  values to a clean serial run (the wrapper eventually calls the real
  cell body with the real kwargs, and cell bodies are pure functions of
  their payload);
* **Cache transparency** -- the engine hashes the *clean* cell payload,
  so chaos runs share cache entries with clean runs and ``--resume``
  after killing a chaos sweep recomputes only missing cells.

Attempt counts must survive worker death (the crashing process cannot
carry its own memory of having crashed), so they live in an on-disk
**ledger**: one tiny counter file per cell key, bumped *before* the
chaos action fires.  Sweep attempts for one cell are strictly
sequential, so the ledger needs no locking -- only crash-safe
write-rename publication.

Activation is either programmatic (``SweepOptions(chaos=ChaosConfig(...))``)
or ambient via environment variables, which is how CI injects chaos
under an unmodified ``repro report`` invocation:

* ``REPRO_SWEEP_CHAOS`` -- ``"mode[+mode...][:first_n]"``, e.g.
  ``"crash+hang:1"`` (default ``first_n`` 1);
* ``REPRO_SWEEP_CHAOS_SEED`` -- selector seed (default 0);
* ``REPRO_SWEEP_CHAOS_FRACTION`` -- fraction of cells afflicted
  (default 1.0);
* ``REPRO_SWEEP_CHAOS_HANG_S`` -- hang duration in seconds (default
  3600; must exceed the sweep's ``--timeout`` to trip it);
* ``REPRO_SWEEP_CHAOS_DIR`` -- ledger directory (default: a fresh
  temporary directory per ``run_sweep`` call).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..sweep.spec import derive_seed, resolve_fn

__all__ = [
    "CHAOS_MODES",
    "ChaosConfig",
    "ChaosError",
    "attempt_count",
    "chaos_from_env",
    "chaotic",
    "wrap_payload",
]

#: Misbehaviours :func:`chaotic` can inject on a cell's first N attempts.
CHAOS_MODES = ("crash", "hang", "raise", "corrupt")


class ChaosError(RuntimeError):
    """The deterministic exception ``mode="raise"`` injects.

    Deliberately an ordinary exception: the retry policy must classify
    it as a deterministic *failed* outcome and never retry it.
    """


@dataclass(frozen=True)
class ChaosConfig:
    """What to inject, into which cells, for how many attempts.

    ``modes`` with more than one entry assigns each afflicted cell one
    mode, chosen by :func:`~repro.sweep.spec.derive_seed` over
    ``(seed, key)`` -- stable across runs, worker counts, and executors.
    ``fraction`` < 1 afflicts only that deterministic share of cells.
    ``exit_code`` is what crash-mode workers ``os._exit`` with; the
    supervisor reports it in the cell's error string.
    """

    modes: Tuple[str, ...] = ("crash",)
    first_n: int = 1
    seed: int = 0
    fraction: float = 1.0
    hang_s: float = 3600.0
    exit_code: int = 17
    ledger_dir: Optional[str] = None

    def __post_init__(self) -> None:
        modes = tuple(self.modes)
        object.__setattr__(self, "modes", modes)
        if not modes:
            raise ValueError("chaos needs at least one mode")
        bad = set(modes) - set(CHAOS_MODES)
        if bad:
            raise ValueError(f"unknown chaos modes {sorted(bad)}; choose from {CHAOS_MODES}")
        if self.first_n < 1:
            raise ValueError(f"first_n must be >= 1, got {self.first_n}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.hang_s <= 0:
            raise ValueError(f"hang_s must be > 0, got {self.hang_s}")

    def mode_for(self, key: str) -> Optional[str]:
        """The mode afflicting cell ``key``, or None if it is spared."""
        if self.fraction < 1.0:
            draw = derive_seed(self.seed, "victim", key) % 1_000_000
            if draw >= int(self.fraction * 1_000_000):
                return None
        return self.modes[derive_seed(self.seed, "mode", key) % len(self.modes)]


def chaos_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[ChaosConfig]:
    """Build a :class:`ChaosConfig` from ``REPRO_SWEEP_CHAOS*``, or None."""
    env = os.environ if environ is None else environ
    spec = env.get("REPRO_SWEEP_CHAOS", "").strip()
    if not spec:
        return None
    modes_part, _, n_part = spec.partition(":")
    modes = tuple(m.strip() for m in modes_part.split("+") if m.strip())
    try:
        first_n = int(n_part) if n_part else 1
        return ChaosConfig(
            modes=modes,
            first_n=first_n,
            seed=int(env.get("REPRO_SWEEP_CHAOS_SEED", "0")),
            fraction=float(env.get("REPRO_SWEEP_CHAOS_FRACTION", "1.0")),
            hang_s=float(env.get("REPRO_SWEEP_CHAOS_HANG_S", "3600")),
            ledger_dir=env.get("REPRO_SWEEP_CHAOS_DIR") or None,
        )
    except ValueError as exc:
        raise ValueError(f"malformed REPRO_SWEEP_CHAOS configuration {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Attempt ledger: per-key counters that survive worker death.
# ---------------------------------------------------------------------------


def _ledger_path(ledger_dir: Union[str, Path], key: str) -> Path:
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return Path(ledger_dir) / f"{digest}.attempt"


def attempt_count(ledger_dir: Union[str, Path], key: str) -> int:
    """Attempts recorded so far for ``key`` (0 when never attempted)."""
    path = _ledger_path(ledger_dir, key)
    try:
        return int(path.read_text())
    except (OSError, ValueError):
        return 0


def _bump_attempt(ledger_dir: Union[str, Path], key: str) -> int:
    """Record one more attempt for ``key`` and return its 1-based number.

    Published write-rename so a crash *after* the bump (the whole point
    of crash mode) still leaves a consistent counter behind.
    """
    path = _ledger_path(ledger_dir, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    attempt = attempt_count(ledger_dir, key) + 1
    fd, tmp = tempfile.mkstemp(prefix=".tmp-attempt-", dir=path.parent)
    with os.fdopen(fd, "w") as fh:
        fh.write(str(attempt))
    os.replace(tmp, path)
    return attempt


# ---------------------------------------------------------------------------
# The cell wrapper (module-level and picklable: workers re-import it).
# ---------------------------------------------------------------------------


def chaotic(
    fn: str,
    kwargs: Dict[str, Any],
    mode: str,
    first_n: int,
    ledger_dir: str,
    key: str,
    hang_s: float = 3600.0,
    exit_code: int = 17,
) -> Any:
    """Misbehave on the first ``first_n`` attempts, then run the real cell.

    ``fn``/``kwargs`` are the wrapped cell's ``module:qualname`` reference
    and arguments; the ledger under ``ledger_dir`` decides which attempt
    this is.  Crash mode must only run under the supervised executor --
    inline it takes the submitting process with it.
    """
    attempt = _bump_attempt(ledger_dir, key)
    if attempt <= first_n:
        if mode == "crash":
            os._exit(exit_code)
        elif mode == "hang":
            # Long enough for the supervisor's deadline to fire; if the
            # sweep has no timeout this stalls, which is the failure the
            # harness exists to demonstrate.
            time.sleep(hang_s)
        elif mode == "raise":
            raise ChaosError(f"injected deterministic failure on attempt {attempt} of {key}")
        elif mode == "corrupt":
            return {"__chaos_corrupt__": True, "key": key, "attempt": attempt}
        else:  # pragma: no cover - ChaosConfig validates modes
            raise ValueError(f"unknown chaos mode {mode!r}")
    return resolve_fn(fn)(**kwargs)


def wrap_payload(
    payload: Dict[str, Any], config: ChaosConfig, ledger_dir: Union[str, Path]
) -> Dict[str, Any]:
    """Rewrap one engine payload so its fn runs under :func:`chaotic`.

    Spared cells (``fraction`` < 1) come back unchanged.  Only the
    *execution* payload is rewritten -- the engine keeps hashing the
    clean cell payload for the cache, which is what makes chaos runs
    cache-compatible with clean runs.
    """
    mode = config.mode_for(payload["key"])
    if mode is None:
        return payload
    wrapped = dict(payload)
    wrapped["fn"] = "repro.faults.chaos:chaotic"
    wrapped["kwargs"] = {
        "fn": payload["fn"],
        "kwargs": payload["kwargs"],
        "mode": mode,
        "first_n": config.first_n,
        "ledger_dir": str(ledger_dir),
        "key": payload["key"],
        "hang_s": config.hang_s,
        "exit_code": config.exit_code,
    }
    return wrapped
