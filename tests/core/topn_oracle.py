"""The sort-based top-N that :func:`repro.core.masks.topn_along_last` replaced.

``topn_along_last`` counts each entry's rank inside its group.
:func:`topn_argsort` is the implementation it replaced: a stable
descending ``argsort`` of ``|scores|`` scattered back into ranks with
``put_along_axis``.  Its results define the primitive's semantics (ties
to the lower index, ``inf`` first, NaN last, a C-contiguous mask).  It
lives here only as a test oracle; nothing in ``src/`` calls it.
"""

import numpy as np


def topn_argsort(scores: np.ndarray, n) -> np.ndarray:
    """Boolean mask of the top-``n`` entries of every last-axis group."""
    scores = np.abs(np.asarray(scores, dtype=np.float64))
    m = scores.shape[-1]
    n_arr = np.asarray(n)
    if np.any(n_arr < 0) or np.any(n_arr > m):
        raise ValueError(f"N must be within [0, {m}]")
    # Rank entries within each group: rank 0 is the largest.
    order = np.argsort(-scores, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(m), scores.shape), axis=-1)
    return ranks < np.expand_dims(n_arr, axis=-1) if n_arr.ndim else ranks < n_arr
