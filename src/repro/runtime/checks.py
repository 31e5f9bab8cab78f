"""Invariant-check layer: mask validity and format round-trip integrity.

STen-style lesson: a sparsity stack is only trustworthy at scale if its
structural invariants (every TBS block really is N:M in some dimension,
every storage format really decodes back to the matrix it encoded) are
*checked where the data flows*, not only in unit tests.  This module is
that checkpoint: cheap enough to leave on in ``warn`` mode, strict
enough to stop a corrupted run dead in ``strict`` mode.

Strictness levels (global, overridable per call site):

* ``off``    -- no checking (the default; zero overhead on hot paths);
* ``warn``   -- violations emit a :class:`InvariantWarning` and continue;
* ``strict`` -- violations raise :class:`InvariantError`.

The level comes from an explicit ``level=`` argument, else the global
one that :func:`check_level` (``--checks`` on the command line) or
:func:`set_check_level` pins.
"""

from __future__ import annotations

import contextlib
import warnings
from typing import Dict, Iterator, Optional

import numpy as np

from ..core.patterns import PatternFamily, PatternSpec
from ..core.validate import validate_mask

__all__ = [
    "CHECK_LEVELS",
    "InvariantError",
    "InvariantWarning",
    "set_check_level",
    "get_check_level",
    "check_level",
    "check_mask",
    "check_workload",
    "check_format_roundtrip",
    "warning_counts",
    "reset_warning_counts",
]

CHECK_LEVELS = ("off", "warn", "strict")

_level: Optional[str] = None  # None -> "off"


class InvariantError(AssertionError):
    """A structural invariant was violated under ``strict`` checking."""


class InvariantWarning(UserWarning):
    """A structural invariant was violated under ``warn`` checking."""


def _validate_level(level: str) -> str:
    if level not in CHECK_LEVELS:
        raise ValueError(f"check level must be one of {CHECK_LEVELS}, got {level!r}")
    return level


def set_check_level(level: Optional[str]) -> None:
    """Set the global strictness; ``None`` restores the default ``off``.

    Also resets the warn-mode dedup state: a new strictness regime
    starts with a clean slate of "already warned" call sites.
    """
    global _level
    _level = None if level is None else _validate_level(level)
    _warn_seen.clear()


def get_check_level(override: Optional[str] = None) -> str:
    if override is not None:
        return _validate_level(override)
    return _level if _level is not None else "off"


@contextlib.contextmanager
def check_level(level: str) -> Iterator[None]:
    """Temporarily pin the global strictness (tests, CLI flags)."""
    global _level
    previous = _level
    set_check_level(level)
    try:
        yield
    finally:
        _level = previous


#: Warn-mode dedup: call-site key -> number of violations observed.
#: A sweep that trips the same invariant at the same site thousands of
#: times emits ONE warning; the rest are tallied for ``warning_counts``.
_warn_seen: Dict[str, int] = {}


def warning_counts() -> Dict[str, int]:
    """Violations tallied per call site since the last reset.

    The value counts *every* violation at that site, including the one
    that actually warned; ``count - 1`` warnings were suppressed.
    """
    return dict(_warn_seen)


def reset_warning_counts() -> None:
    """Forget which call sites have already warned (see ``warning_counts``)."""
    _warn_seen.clear()


def _report_violation(message: str, level: str, site: Optional[str] = None) -> None:
    if level == "strict":
        raise InvariantError(message)
    if site is not None:
        _warn_seen[site] = _warn_seen.get(site, 0) + 1
        if _warn_seen[site] > 1:
            return  # already warned for this site; keep the tally only
        message = f"{message} (further {site!r} violations are counted, not re-warned)"
    warnings.warn(message, InvariantWarning, stacklevel=3)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_mask(
    mask: np.ndarray,
    spec: PatternSpec,
    tbs=None,
    context: str = "",
    level: Optional[str] = None,
) -> bool:
    """Validate ``mask`` against ``spec``; returns True when clean.

    Under ``off`` the mask is never inspected.  ``tbs`` carries the
    block metadata when the mask came from Algorithm 1, tightening the
    TBS check to the declared per-block (N, direction).
    """
    level = get_check_level(level)
    if level == "off":
        return True
    report = validate_mask(mask, spec, tbs=tbs)
    if report.ok:
        return True
    where = f" [{context}]" if context else ""
    _report_violation(
        f"mask invariant violated{where}: {report.summary()}",
        level,
        site=f"mask:{context}" if context else None,
    )
    return False


def check_workload(workload, context: str = "", level: Optional[str] = None) -> bool:
    """Validate a :class:`~repro.workloads.generator.GEMMWorkload` mask."""
    level = get_check_level(level)
    if level == "off":
        return True
    family = workload.family
    if family is PatternFamily.US:
        return True
    spec = PatternSpec(family, m=workload.m, sparsity=min(1.0, max(0.0, workload.sparsity)))
    return check_mask(
        workload.mask,
        spec,
        tbs=workload.tbs,
        context=context or workload.name,
        level=level,
    )


def check_format_roundtrip(
    fmt,
    values: np.ndarray,
    mask: Optional[np.ndarray] = None,
    tbs=None,
    block_size: int = 8,
    context: str = "",
    level: Optional[str] = None,
) -> bool:
    """Encode-then-decode ``values`` through ``fmt`` and compare exactly.

    This is the storage-format integrity invariant: whatever bytes the
    memory system would move must reconstruct the sparse matrix
    bit-exactly.  The encoding's access traces (both orientations) are
    also checked against its declared footprint via
    :mod:`repro.formats.validate`.  Expensive (a full encode+decode), so
    call sites gate it behind ``strict``.
    """
    level = get_check_level(level)
    if level == "off":
        return True
    expected = np.where(mask, values, 0.0) if mask is not None else np.asarray(values, float)
    try:
        from ..formats.base import EncodedMatrix, EncodeSpec
        from ..formats.validate import validate_trace

        encoded = fmt.encode(values, EncodeSpec(mask=mask, tbs=tbs, block_size=block_size))
        if isinstance(encoded, EncodedMatrix):
            validate_trace(encoded)
        decoded = fmt.decode(encoded)
    except Exception as exc:  # noqa: BLE001 - converted into the invariant report
        where = f" [{context}]" if context else ""
        _report_violation(
            f"format {fmt.name!r} round-trip crashed{where}: {exc}",
            level,
            site=f"roundtrip:{fmt.name}:{context}" if context else None,
        )
        return False
    if decoded.shape != expected.shape or not np.array_equal(decoded, expected):
        where = f" [{context}]" if context else ""
        bad = int(np.sum(decoded != expected)) if decoded.shape == expected.shape else -1
        _report_violation(
            f"format {fmt.name!r} round-trip mismatch{where}: "
            f"{bad if bad >= 0 else 'shape'} differing elements "
            f"({decoded.shape} vs {expected.shape})",
            level,
            site=f"roundtrip:{fmt.name}:{context}" if context else None,
        )
        return False
    return True
