"""Trace-vs-footprint validation for encoded matrices.

An :class:`~repro.formats.base.EncodedMatrix` declares a storage
footprint (``total_bytes``) and emits access traces, but nothing
historically checked that the two agree -- a format could trace reads
past the end of its own layout, or double-charge itself by overlapping
segments, and every downstream bandwidth number would silently inherit
the error.  :func:`validate_trace` closes that gap:

* every segment must lie within ``[0, total_bytes]``;
* segments within one trace must not *partially* overlap.  Exact
  re-reads of a whole segment are legal (the SDC transposed walk
  re-fetches entire row-groups; DRAM really does re-transfer them), but
  two segments covering overlapping-yet-different ranges means the
  format's address map is inconsistent.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import ORIENTATIONS, EncodedMatrix

__all__ = ["TraceValidationError", "trace_violations", "validate_trace"]


class TraceValidationError(ValueError):
    """An encoded matrix's access trace contradicts its declared footprint."""


def trace_violations(
    encoded: EncodedMatrix, orientation: Optional[str] = None
) -> List[str]:
    """Violation descriptions for one orientation's trace (empty = valid)."""
    trace = encoded.trace(orientation)
    addr, nbytes, end = trace.addr, trace.nbytes, trace.end
    total = encoded.total_bytes
    problems: List[str] = []
    for i in np.flatnonzero(end > total).tolist():
        problems.append(
            f"segment {i} ({addr[i]}, {nbytes[i]}) ends at {end[i]}, "
            f"past the declared footprint of {total} bytes"
        )
    # Partial-overlap check: sort distinct extents by address; exact
    # duplicates collapse (whole-segment re-fetch is a legal access
    # pattern), anything else sharing bytes is a layout inconsistency.
    stored = nbytes > 0
    extents = np.unique(np.stack([addr[stored], end[stored]], axis=1), axis=0)
    (a0, a1), (b0, b1) = extents[:-1].T, extents[1:].T
    for j in np.flatnonzero(b0 < a1).tolist():
        problems.append(
            f"segments ({a0[j]}, {a1[j] - a0[j]}) and ({b0[j]}, {b1[j] - b0[j]}) "
            "partially overlap"
        )
    return problems


def validate_trace(
    encoded: EncodedMatrix, orientation: Optional[str] = None
) -> None:
    """Raise :class:`TraceValidationError` if a trace is inconsistent.

    With ``orientation=None`` both orientations are checked (the
    transposed trace is derived lazily, so this is also a smoke test
    that the format can serve it).
    """
    orientations = ORIENTATIONS if orientation is None else (orientation,)
    for orient in orientations:
        problems = trace_violations(encoded, orient)
        if problems:
            raise TraceValidationError(
                f"{encoded.format_name} {orient} trace is inconsistent: "
                + "; ".join(problems)
            )
