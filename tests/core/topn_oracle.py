"""The sort-based top-N that :func:`repro.core.masks.topn_along_last` replaced.

``topn_along_last`` counts each entry's rank inside its group.
:func:`topn_argsort` is the implementation it replaced: a stable
descending ``argsort`` of ``|scores|`` scattered back into ranks with
``put_along_axis``.  Its results define the primitive's semantics (ties
to the lower index, ``inf`` first, NaN last, a C-contiguous mask).
:func:`ranks_argsort` gives the same ranks in the M-first form of
``repro.core.masks._count_ranks``, the one rank count every generator
reads, so a test can swap it in there.  :func:`ranks_count_loop` is the
count ``_count_ranks`` ran before it compared each pair once: M
compare-and-add passes, M^2 slot comparisons per group, in the same
dtype.  :func:`nearest_candidate` is the scalar form of Algorithm 1
step 2 that ``repro.core.patterns.nearest_candidates_grid`` vectorizes.
All four live here only as test oracles; nothing in ``src/`` calls them.
"""

from typing import Sequence

import numpy as np


def _ranks_last(scores: np.ndarray) -> np.ndarray:
    """Rank of every ``|score|`` in its last-axis group: 0 is the largest."""
    scores = np.abs(np.asarray(scores, dtype=np.float64))
    m = scores.shape[-1]
    order = np.argsort(-scores, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(m), scores.shape), axis=-1)
    return ranks


def topn_argsort(scores: np.ndarray, n) -> np.ndarray:
    """Boolean mask of the top-``n`` entries of every last-axis group."""
    m = np.shape(scores)[-1]
    n_arr = np.asarray(n)
    if np.any(n_arr < 0) or np.any(n_arr > m):
        raise ValueError(f"N must be within [0, {m}]")
    ranks = _ranks_last(scores)
    return ranks < np.expand_dims(n_arr, axis=-1) if n_arr.ndim else ranks < n_arr


def ranks_argsort(groups: np.ndarray) -> np.ndarray:
    """Ranks of every group along axis 0, M-first and C-ordered."""
    ranks = _ranks_last(np.moveaxis(np.asarray(groups, dtype=np.float64), 0, -1))
    return np.ascontiguousarray(np.moveaxis(ranks, -1, 0))


def ranks_count_loop(groups: np.ndarray) -> np.ndarray:
    """``_count_ranks`` with M^2 slot comparisons per group.

    ``rank_i = #{j : s_j > s_i} + #{j < i : s_j == s_i}`` over
    ``s = |groups|`` with NaN mapped below every magnitude, one
    compare-and-add pass per slot ``j``.
    """
    mags = np.abs(groups, order="C")
    np.fmax(mags, -1.0, out=mags)
    m = len(mags)
    ranks = np.zeros(mags.shape, dtype=np.min_scalar_type(m))
    for j in range(m):
        ranks[: j + 1] += mags[j] > mags[: j + 1]
        ranks[j + 1 :] += mags[j] >= mags[j + 1 :]
    return ranks


def nearest_candidate(density: float, m: int, candidates: Sequence[int]) -> int:
    """Pick the candidate N whose density N/M is closest to ``density``.

    Implements Algorithm 1 step 2 (``N_p = argmin |N_i / M - d_p|``; the
    paper's listing writes the sparsity degree ``s_p`` where the density is
    clearly intended -- N/M is a density, and matching it against a sparsity
    would invert the selection).  Ties break toward the smaller N so that
    the overall mask never exceeds the target density.
    """
    if not candidates:
        raise ValueError("candidate list must not be empty")
    best = min(candidates, key=lambda n: (abs(n / m - density), n))
    return best
