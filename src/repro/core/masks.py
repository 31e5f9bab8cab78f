"""Mask generators for every sparsity-pattern family the paper compares.

Every generator takes a *score* matrix (importance per weight -- magnitude
by default, but any criterion from :mod:`repro.core.criteria` works, since
the paper notes pattern and criterion are orthogonal) and returns a boolean
mask of the same shape where ``True`` marks a kept (non-zero) weight.

Conventions (see :mod:`repro.core.patterns`): the matrix rows are the
independent dimension and the columns the reduction dimension, so
"row-wise" N:M groups run along axis 1.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .patterns import (
    DEFAULT_M,
    NMConfig,
    PatternFamily,
    PatternSpec,
    nearest_candidates_grid,
)

__all__ = [
    "unstructured_mask",
    "global_threshold",
    "tile_mask",
    "topn_along_last",
    "vegeta_mask",
    "highlight_mask",
    "make_mask",
]


def _as_matrix(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"expected a 2-D score matrix, got shape {scores.shape}")
    return scores


def _as_scores(scores: np.ndarray) -> np.ndarray:
    return np.abs(_as_matrix(scores))


def _keep_top_k(magnitudes: np.ndarray, sparsity: float) -> np.ndarray:
    """:func:`unstructured_mask` of scores that are already ``|scores|``."""
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    total = magnitudes.size
    keep = total - int(round(sparsity * total))
    mask = np.zeros(total, dtype=bool)
    if keep > 0:
        flat = magnitudes.ravel()
        kept_idx = np.argpartition(flat, total - keep)[total - keep :]
        mask[kept_idx] = True
    return mask.reshape(magnitudes.shape)


def unstructured_mask(scores: np.ndarray, sparsity: float) -> np.ndarray:
    """Global top-k mask: keep the ``(1 - sparsity)`` highest-score entries."""
    return _keep_top_k(_as_scores(scores), sparsity)


def global_threshold(scores: np.ndarray, sparsity: float) -> float:
    """Score threshold at the target sparsity over the whole matrix.

    This is the first step of the sparse-training forward pass
    (Sec. III-B1): "we first obtain the threshold on the entire weight
    according to the target sparsity".
    """
    scores = _as_scores(scores)
    if scores.size == 0 or sparsity <= 0.0:
        return 0.0
    if sparsity >= 1.0:
        return float(scores.max()) + 1.0
    return float(np.quantile(scores.ravel(), sparsity))


def topn_along_last(scores: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask keeping the top-``n`` entries along the last axis.

    Works on any leading shape; this is the N:M primitive used by every
    structured generator.  ``n`` may be an integer array broadcastable over
    the leading axes (per-group N), enabling the variable-N patterns.

    Entries rank by ``|score|`` exactly as a stable descending sort
    would place them: ties go to the lower index, ``inf`` ranks first and
    NaN last.  The rank is counted rather than sorted (DESIGN.md §4b,
    "Top-N by counting"), and the mask is C-contiguous whatever the
    input layout.
    """
    scores = np.asarray(scores, dtype=np.float64)
    m = scores.shape[-1]
    n_arr = np.asarray(n)
    if np.any(n_arr < 0) or np.any(n_arr > m):
        raise ValueError(f"N must be within [0, {m}]")
    # |scores| as an M-first C-ordered copy, so each pass below is one flat
    # compare of a group slot against all slots.  NaN moves below every
    # magnitude: a stable descending sort puts it last.
    mags = np.abs(np.moveaxis(scores, -1, 0), order="C")
    np.fmax(mags, -1.0, out=mags)
    # rank_i = #{j : s_j > s_i} + #{j < i : s_j == s_i}
    ranks = np.zeros(mags.shape, dtype=np.min_scalar_type(m))
    for j in range(m):
        ranks[: j + 1] += mags[j] > mags[: j + 1]
        ranks[j + 1 :] += mags[j] >= mags[j + 1 :]
    if n_arr.dtype.kind in "biu":
        n_arr = n_arr.astype(ranks.dtype)  # compare without widening the ranks
    if n_arr.ndim:
        n_arr = np.expand_dims(n_arr, axis=-1)
    # Back to the caller's group-last shape, C-ordered: tbs_sparsify's
    # direction tie-break sums score mass in this memory order.
    return np.less(np.moveaxis(ranks, 0, -1), n_arr, order="C")


def tile_mask(scores: np.ndarray, nm: NMConfig) -> np.ndarray:
    """Tile-wise N:M mask (TS): fixed N for every M-wide reduction-dim tile.

    This is the NVIDIA Sparse Tensor Core pattern (2:4 in hardware; the
    paper's TS baseline uses 4:8).
    """
    scores = _as_matrix(scores)  # topn_along_last ranks by |score| itself
    rows, cols = scores.shape
    pad_c = (-cols) % nm.m
    padded = np.pad(scores, ((0, 0), (0, pad_c)), constant_values=-np.inf)
    groups = padded.reshape(rows, -1, nm.m)
    mask = topn_along_last(groups, nm.n)
    mask &= np.isfinite(groups)  # padding is never "kept"
    return mask.reshape(rows, -1)[:, :cols]


def _row_densities_from_unstructured(magnitudes: np.ndarray, sparsity: float) -> np.ndarray:
    """Per-row densities implied by the global unstructured mask.

    Both row-wise baselines calibrate their per-row N against the density
    the unstructured pattern would give that row, which is how they reach
    the matrix-level target sparsity while redistributing across rows.
    """
    return _keep_top_k(magnitudes, sparsity).mean(axis=1)


def vegeta_mask(
    scores: np.ndarray,
    m: int = DEFAULT_M,
    sparsity: float = 0.5,
    candidates: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Row-wise N:M mask with per-row N (the VEGETA / RS-V baseline).

    Each row independently selects its N from the candidate set to best
    match its unstructured density, then applies uniform N:M along its
    reduction-dim groups.  Unlike the block-wise patterns, VEGETA's
    hardware supports *any* N in [0, M] per row, so the default
    candidate set is the full integer range.
    """
    scores = _as_scores(scores)
    if candidates is None:
        candidates = tuple(range(m + 1))
    spec = PatternSpec(PatternFamily.RS_V, m=m, sparsity=sparsity, candidates=tuple(candidates))
    rows, cols = scores.shape
    densities = _row_densities_from_unstructured(scores, sparsity)
    row_n = nearest_candidates_grid(densities, m, spec.candidates)

    pad_c = (-cols) % m
    padded = np.pad(scores, ((0, 0), (0, pad_c)), constant_values=-np.inf)
    groups = padded.reshape(rows, -1, m)
    mask = topn_along_last(groups, row_n[:, None])
    mask &= np.isfinite(groups)
    return mask.reshape(rows, -1)[:, :cols]


def highlight_mask(
    scores: np.ndarray,
    m: int = DEFAULT_M,
    sparsity: float = 0.5,
    candidates: Optional[Sequence[int]] = None,
    super_group: int = 4,
) -> np.ndarray:
    """Hierarchical row-wise mask (the HighLight / RS-H baseline).

    HighLight composes two sparsity levels: a coarse level that keeps
    ``T`` of every ``super_group`` M-wide tiles (tile-level N:M over tile
    occupancy) and a fine level that applies N:M inside each surviving
    tile.  Per row we search the small (T, N) grid for the product ratio
    ``(T / super_group) * (N / M)`` closest to the row's unstructured
    density, which yields more achievable sparsity degrees than RS-V's
    single-level choice.
    """
    scores = _as_scores(scores)
    spec = PatternSpec(PatternFamily.RS_H, m=m, sparsity=sparsity, candidates=tuple(candidates) if candidates else None)
    rows, cols = scores.shape
    densities = _row_densities_from_unstructured(scores, sparsity)

    fine_levels = [n for n in spec.candidates if n > 0]
    coarse_levels = list(range(1, super_group + 1))
    combos: list[Tuple[int, int, float]] = [
        (t, n, (t / super_group) * (n / m)) for t in coarse_levels for n in fine_levels
    ]
    combos.append((0, 0, 0.0))

    pad_c = (-cols) % (m * super_group)
    padded = np.pad(scores, ((0, 0), (0, pad_c)), constant_values=0.0)
    n_tiles = padded.shape[1] // m
    tiles = padded.reshape(rows, n_tiles, m)

    tile_strength = tiles.sum(axis=2)  # coarse-level tile importance

    # Per-row combo choice, vectorized with the same lexicographic
    # tie-break as ``min(combos, key=(abs diff, ratio))`` plus list
    # position: smallest |ratio - density|, then smallest ratio, then
    # first combo in (t, n) enumeration order.
    ratios = np.array([c[2] for c in combos])
    diffs = np.abs(ratios[None, :] - densities[:, None])
    cand = diffs == diffs.min(axis=1, keepdims=True)
    ratio_masked = np.where(cand, ratios[None, :], np.inf)
    cand &= ratio_masked == ratio_masked.min(axis=1, keepdims=True)
    best = np.argmax(cand, axis=1)
    t_keep = np.array([c[0] for c in combos])[best]
    n_keep = np.array([c[1] for c in combos])[best]

    # Coarse level: keep the strongest t_keep[r] tiles per super-group.
    strengths = tile_strength.reshape(rows, -1, super_group)
    keep_tiles = topn_along_last(strengths, t_keep[:, None]).reshape(rows, n_tiles)
    # Fine level: top-n_keep[r] inside every tile (a tile's top-N does
    # not depend on the other tiles, so computing it everywhere and
    # masking with the coarse keep set matches the per-row loop exactly).
    fine = topn_along_last(tiles, n_keep[:, None])
    mask = fine & keep_tiles[:, :, None] & (n_keep > 0)[:, None, None]
    return mask.reshape(rows, -1)[:, :cols]


def make_mask(scores: np.ndarray, spec: PatternSpec) -> np.ndarray:
    """Dispatch to the generator for ``spec.family``.

    TBS is implemented by Algorithm 1 in :mod:`repro.core.sparsify`; it is
    imported lazily here to keep the module dependency graph acyclic.
    """
    if spec.family is PatternFamily.US:
        return unstructured_mask(scores, spec.sparsity)
    if spec.family is PatternFamily.TS:
        return tile_mask(scores, NMConfig(spec.fixed_n, spec.m))
    if spec.family is PatternFamily.RS_V:
        return vegeta_mask(scores, spec.m, spec.sparsity, spec.candidates)
    if spec.family is PatternFamily.RS_H:
        return highlight_mask(scores, spec.m, spec.sparsity, spec.candidates)
    if spec.family is PatternFamily.TBS:
        from .sparsify import tbs_sparsify

        return tbs_sparsify(scores, m=spec.m, sparsity=spec.sparsity, candidates=spec.candidates).mask
    if spec.family is PatternFamily.NMT:
        from .transposable import transposable_sparsify

        mask, _ = transposable_sparsify(
            scores, m=spec.m, sparsity=spec.sparsity, candidates=spec.candidates
        )
        return mask
    raise ValueError(f"unknown pattern family: {spec.family}")
