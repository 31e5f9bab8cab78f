"""Mask validation: check that a mask satisfies a pattern family's rules.

Downstream users (and our own tests) need to verify that a mask claimed
to be, say, row-wise 2:8 actually is -- e.g. after externally-produced
checkpoints or hand-edited masks.  Each validator returns a
:class:`ValidationReport` listing every violation instead of just a
boolean, so failures are actionable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .blocks import block_row_counts, count_trailing
from .patterns import Direction, PatternFamily, PatternSpec
from .sparsify import TBSResult

__all__ = [
    "Violation",
    "ValidationReport",
    "validate_mask",
]


@dataclass(frozen=True)
class Violation:
    """One rule violation: where, and what went wrong."""

    location: Tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return f"{self.location}: {self.message}"


@dataclass
class ValidationReport:
    """Outcome of validating one mask."""

    family: PatternFamily
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, location: Tuple[int, ...], message: str) -> None:
        self.violations.append(Violation(location, message))

    def summary(self, limit: int = 5) -> str:
        if self.ok:
            return f"{self.family.name}: valid"
        head = "; ".join(str(v) for v in self.violations[:limit])
        more = len(self.violations) - limit
        tail = f" (+{more} more)" if more > 0 else ""
        return f"{self.family.name}: {len(self.violations)} violation(s): {head}{tail}"


def _check_groups(report, mask: np.ndarray, m: int, max_n=None, uniform_rows: bool = False) -> None:
    """Row-wise group checks shared by TS and RS validation."""
    rows, cols = mask.shape
    pad = (-cols) % m
    padded = np.pad(mask, ((0, 0), (0, pad)))
    groups = count_trailing(padded.reshape(rows, -1, m))
    for r in range(rows):
        row_counts = groups[r]
        if uniform_rows:
            # Ignore the ragged last group, which may legitimately hold
            # fewer elements.
            full = row_counts[:-1] if pad else row_counts
            if full.size and (full != full[0]).any():
                report.add((r,), f"non-uniform group occupancy {sorted(set(full.tolist()))}")
        if max_n is not None:
            for g, count in enumerate(row_counts):
                if count > max_n:
                    report.add((r, g), f"group keeps {count} > N={max_n}")


def validate_mask(
    mask: np.ndarray,
    spec: PatternSpec,
    tbs: Optional[TBSResult] = None,
) -> ValidationReport:
    """Validate ``mask`` against the constraints of ``spec.family``.

    * ``US`` -- always valid (only the sparsity degree is advisory).
    * ``TS`` -- every M-wide reduction-dim group keeps at most
      ``spec.fixed_n``.
    * ``RS_V`` -- every group keeps at most M, and groups within a row
      are uniform (the per-row-N constraint).
    * ``RS_H`` -- every group keeps at most M (the hierarchy is a
      refinement; group-level emptiness is allowed anywhere).
    * ``TBS`` -- every ``M x M`` block satisfies N:M in at least one
      dimension for some candidate N (or exactly the declared direction
      and N when ``tbs`` metadata is supplied).
    * ``NMT`` -- every ``M x M`` block satisfies N:M in *both*
      dimensions for some candidate N (the strictly transposable
      constraint: max row and column occupancy within one candidate).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"expected a 2-D mask, got {mask.shape}")
    report = ValidationReport(spec.family)
    m = spec.m

    if spec.family is PatternFamily.US:
        return report
    if spec.family is PatternFamily.TS:
        _check_groups(report, mask, m, max_n=spec.fixed_n)
        return report
    if spec.family is PatternFamily.RS_V:
        _check_groups(report, mask, m, max_n=m, uniform_rows=True)
        return report
    if spec.family is PatternFamily.RS_H:
        _check_groups(report, mask, m, max_n=m)
        return report
    # Per-block lane occupancy: row segments of the mask and of its transpose.
    block_rows = block_row_counts(mask, m)
    block_cols = block_row_counts(mask.T, m).swapaxes(0, 1)
    n_br, n_bc = block_rows.shape[:2]
    if spec.family is PatternFamily.TBS:
        for br in range(n_br):
            for bc in range(n_bc):
                row_counts = block_rows[br, bc]
                col_counts = block_cols[br, bc]
                if tbs is not None:
                    n = int(tbs.block_n[br, bc])
                    direction = Direction(int(tbs.block_direction[br, bc]))
                    counts = row_counts if direction is Direction.ROW else col_counts
                    if counts.max(initial=0) > n:
                        report.add((br, bc), f"{direction.name} block exceeds declared N={n}")
                    continue
                # A block is valid if its max lane occupancy in SOME
                # direction is an allowed N and the occupancy is uniform
                # (zero-padded lanes excepted at matrix edges).
                row_uniform = row_counts.max(initial=0) in spec.candidates and (
                    set(row_counts.tolist()) <= {0, row_counts.max(initial=0)}
                )
                col_uniform = col_counts.max(initial=0) in spec.candidates and (
                    set(col_counts.tolist()) <= {0, col_counts.max(initial=0)}
                )
                if not (row_uniform or col_uniform):
                    report.add(
                        (br, bc),
                        f"block valid in neither dimension "
                        f"(row counts {sorted(set(row_counts.tolist()))}, "
                        f"col counts {sorted(set(col_counts.tolist()))})",
                    )
        return report
    if spec.family is PatternFamily.NMT:
        max_candidate = max(spec.candidates)
        for br in range(n_br):
            for bc in range(n_bc):
                occ = max(
                    int(block_rows[br, bc].max(initial=0)),
                    int(block_cols[br, bc].max(initial=0)),
                )
                # Strictly transposable: some candidate N must bound the
                # occupancy of every row AND every column of the block.
                if occ > max_candidate:
                    report.add(
                        (br, bc),
                        f"block occupancy {occ} exceeds every candidate N "
                        f"(max {max_candidate})",
                    )
        return report
    raise ValueError(f"unknown family {spec.family}")
