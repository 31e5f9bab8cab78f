"""Helpers the transposable-mask tests share.

:func:`is_transposable` is the 2-D N:M check every NM-T block must
pass; :func:`solve_block` runs one square score block through the
batch solver ``repro.core.tsolvers.solve_blocks``.  Nothing in
``src/`` calls either: the library only solves whole block grids
(``repro.core.transposable.transposable_sparsify``).
"""

from typing import Optional

import numpy as np

from repro.core.tsolvers import solve_blocks


def is_transposable(mask: np.ndarray, n: int, m: Optional[int] = None) -> bool:
    """True when every row *and* every column keeps at most ``n`` entries."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"expected a 2-D mask, got {mask.shape}")
    if m is not None and mask.shape != (m, m):
        raise ValueError(f"expected a {m}x{m} block")
    return bool(mask.sum(axis=0).max(initial=0) <= n and mask.sum(axis=1).max(initial=0) <= n)


def solve_block(scores: np.ndarray, n: int, backend: Optional[str] = None) -> np.ndarray:
    """Max-score strictly transposable mask of one square score block."""
    return solve_blocks(np.asarray(scores)[None], np.array([n]), backend=backend)[0]
