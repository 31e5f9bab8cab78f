"""Mask generators for every sparsity-pattern family the paper compares.

Every generator takes a *score* matrix (importance per weight -- magnitude
by default, but any criterion from :mod:`repro.core.criteria` works, since
the paper notes pattern and criterion are orthogonal) and returns a boolean
mask of the same shape where ``True`` marks a kept (non-zero) weight.

Conventions (see :mod:`repro.core.patterns`): the matrix rows are the
independent dimension and the columns the reduction dimension, so
"row-wise" N:M groups run along axis 1.

Under the iso-accuracy protocol every architecture prunes the *same*
layer weights, and its family reads the same projection inputs of them:
the unstructured top-k mask at a sparsity (US, the RS-V and RS-H row
densities, TBS's step 1, NM-T's block densities) and the ranks of
``|W|`` inside M-wide groups (TS, RS-V, the RS-H fine level and TBS's
row pass along rows; TBS's column pass along columns).  Of a score
matrix no caller can write (:func:`repro.perf.memo.read_only`; the
weights memo hands out such arrays) each input is counted once and kept
read-only in one memo (:func:`_shared`); any other matrix is counted
fresh through the same code.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..perf import timed
from ..perf.memo import ArrayMemo, read_only
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


#: Byte budget of the projection memo.  A shared matrix costs 4 B per
#: weight: its row and its column rank matrices (``uint8``) and one top-k
#: mask at each of the two sparsities a fig13 model prunes it to.  That
#: holds one whole model at the CLI's default ``--scale 4`` (OPT-6.7B's
#: four layers take ~50 MB there, ~12.5 MB at scale 8).
PROJECTION_MEMO_BYTES = 64 << 20

_PROJECTIONS = ArrayMemo(PROJECTION_MEMO_BYTES)


def _shared(scores: np.ndarray, key: tuple, count: Callable[[], np.ndarray]) -> np.ndarray:
    """``count()``, computed once per ``key`` of a ``scores`` no caller can write.

    ``count`` projects ``scores`` alone.  A kept result is read-only and
    served only while ``scores`` itself lives, so a recycled ``id`` never
    hits; any other ``scores`` runs ``count`` on every call.
    """
    if not (isinstance(scores, np.ndarray) and read_only(scores)):
        return count()
    key = (id(scores),) + key
    hit = _PROJECTIONS.get(key, owner=scores)
    if hit is None:
        hit = _PROJECTIONS.put(key, count(), owner=scores)
    return hit


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


def _top_k(
    scores: np.ndarray, sparsity: float, magnitudes: Optional[np.ndarray] = None
) -> np.ndarray:
    """The top-k mask of ``|scores|``, shared per read-only ``scores``.

    ``magnitudes`` is ``|scores|`` as a float64 matrix, if the caller
    already has it.  The mask is read-only when it is shared.
    """

    def count() -> np.ndarray:
        return _keep_top_k(_as_scores(scores) if magnitudes is None else magnitudes, sparsity)

    return _shared(scores, ("top_k", sparsity), count)


def unstructured_mask(scores: np.ndarray, sparsity: float) -> np.ndarray:
    """Global top-k mask: keep the ``(1 - sparsity)`` highest-score entries."""
    mask = _top_k(scores, sparsity)
    return mask if mask.flags.writeable else mask.copy()


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


def _count_ranks(groups: np.ndarray) -> np.ndarray:
    """The rank by ``|score|`` of every entry in its group along axis 0.

    ``groups`` is float64 with the group on its first axis, in any
    layout.  Returns the ranks in that M-first shape, C-ordered, in the
    smallest unsigned dtype that holds M (``uint8`` up to M = 255).
    """
    # |scores| as an M-first C-ordered copy, so each pass below is one flat
    # compare of a group slot against the later slots.  NaN moves below every
    # magnitude: a stable descending sort puts it last.
    mags = np.abs(groups, order="C")
    np.fmax(mags, -1.0, out=mags)
    m = len(mags)
    dtype = np.min_scalar_type(m)
    # rank_i = #{j : s_j > s_i} + #{j < i : s_j == s_i}
    #        = i + #{j > i : s_j > s_i} - #{j < i : s_i > s_j},
    # so one compare per pair i < j moves both ranks.  Before pass i a
    # later rank_j has lost at most i of its j, so no unsigned rank wraps.
    ranks = np.empty(mags.shape, dtype=dtype)
    ranks[...] = np.arange(m, dtype=dtype).reshape((m,) + (1,) * (mags.ndim - 1))
    for i in range(m - 1):
        beaten = mags[i + 1 :] > mags[i]
        ranks[i] += beaten.sum(axis=0, dtype=dtype)
        ranks[i + 1 :] -= beaten
    return ranks


def _top_n(ranks: np.ndarray, n) -> np.ndarray:
    """``ranks < n``: the top-``n`` mask of group-last ``ranks``, C-ordered.

    ``n`` is an integer or an integer array broadcastable over the
    leading axes.
    """
    m = ranks.shape[-1]
    n_arr = np.asarray(n)
    if np.any(n_arr < 0) or np.any(n_arr > m):
        raise ValueError(f"N must be within [0, {m}]")
    if n_arr.dtype.kind in "biu":
        n_arr = n_arr.astype(ranks.dtype)  # compare without widening the ranks
    if n_arr.ndim:
        n_arr = np.expand_dims(n_arr, axis=-1)
    return np.less(ranks, n_arr, order="C")


def topn_along_last(scores: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask keeping the top-``n`` entries along the last axis.

    Works on any leading shape; this is the N:M primitive used by every
    structured generator.  ``n`` may be an integer array broadcastable over
    the leading axes (per-group N), enabling the variable-N patterns.

    Entries rank by ``|score|`` exactly as a stable descending sort
    would place them: ties go to the lower index, ``inf`` ranks first and
    NaN last.  The rank is counted rather than sorted (DESIGN.md §4b,
    "Top-N by counting"), and the mask is C-contiguous whatever the
    input layout: tbs_sparsify's direction tie-break sums score mass in
    the memory order of its masks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    ranks = _count_ranks(np.moveaxis(scores, -1, 0))
    return _top_n(np.moveaxis(ranks, 0, -1), n)


def _padded(matrix: np.ndarray, m: int, pad: float) -> np.ndarray:
    """``matrix`` padded with ``pad`` to a multiple of ``m`` in both dimensions."""
    pad_r, pad_c = (-matrix.shape[0]) % m, (-matrix.shape[1]) % m
    if not (pad_r or pad_c):
        return matrix
    return np.pad(matrix, ((0, pad_r), (0, pad_c)), constant_values=pad)


def _row_ranks(scores: np.ndarray, matrix: np.ndarray, m: int, pad: float) -> np.ndarray:
    """Ranks of ``|matrix|`` in the M-wide groups of each row, M-first.

    ``matrix`` is ``scores`` (or ``|scores|``) as a float64 matrix,
    padded with ``pad`` (:func:`_padded`); entry ``[k, r, g]`` is the
    rank of column ``g*m + k`` of row ``r``.  A padding row ranks its
    equal entries by index whatever ``pad`` is, so ``pad`` changes only a
    ragged last column group, and only then splits the shared array.
    """

    def count() -> np.ndarray:
        padded = _padded(matrix, m, pad)
        rows_p, cols_p = padded.shape
        return _count_ranks(np.moveaxis(padded.reshape(rows_p, cols_p // m, m), -1, 0))

    return _shared(scores, ("rows", m, pad if matrix.shape[1] % m else None), count)


def _col_ranks(scores: np.ndarray, matrix: np.ndarray, m: int) -> np.ndarray:
    """Ranks of ``|matrix|`` in the M-tall groups of each column, M-first.

    Both dimensions are zero-padded; entry ``[i, b, c]`` is the rank of
    row ``b*m + i`` of column ``c``.
    """

    def count() -> np.ndarray:
        padded = _padded(matrix, m, 0.0)
        rows_p, cols_p = padded.shape
        return _count_ranks(padded.reshape(rows_p // m, m, cols_p).swapaxes(0, 1))

    return _shared(scores, ("cols", m), count)


def _row_topn(scores: np.ndarray, matrix: np.ndarray, m: int, n) -> np.ndarray:
    """Top-``n`` of every M-wide row group of ``matrix``, a non-finite score never kept.

    A ragged last group is padded with ``-inf``, which ``|.|`` ranks
    first (the pinned behaviour, DESIGN.md §4b).  ``n`` is a scalar or
    one N per row, shape ``(rows, 1)``.
    """
    rows, cols = matrix.shape
    ranks = np.moveaxis(_row_ranks(scores, matrix, m, -np.inf), 0, -1)[:rows]
    mask = _top_n(ranks, n).reshape(rows, -1)[:, :cols]
    mask &= np.isfinite(matrix)
    return mask


def tile_mask(scores: np.ndarray, nm: NMConfig) -> np.ndarray:
    """Tile-wise N:M mask (TS): fixed N for every M-wide reduction-dim tile.

    This is the NVIDIA Sparse Tensor Core pattern (2:4 in hardware; the
    paper's TS baseline uses 4:8).
    """
    return _row_topn(scores, _as_matrix(scores), nm.m, nm.n)


def _row_densities_from_unstructured(
    scores: np.ndarray, sparsity: float, magnitudes: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-row densities implied by the global unstructured mask.

    Both row-wise baselines calibrate their per-row N against the density
    the unstructured pattern would give that row, which is how they reach
    the matrix-level target sparsity while redistributing across rows.
    """
    return _top_k(scores, sparsity, magnitudes).mean(axis=1)


@timed("core.mask.vegeta_mask")
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
    matrix = _as_matrix(scores)
    if candidates is None:
        candidates = tuple(range(m + 1))
    spec = PatternSpec(PatternFamily.RS_V, m=m, sparsity=sparsity, candidates=tuple(candidates))
    densities = _row_densities_from_unstructured(scores, sparsity)
    row_n = nearest_candidates_grid(densities, m, spec.candidates)
    return _row_topn(scores, matrix, m, row_n[:, None])


@timed("core.mask.highlight_mask")
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
    magnitudes = _as_scores(scores)
    spec = PatternSpec(PatternFamily.RS_H, m=m, sparsity=sparsity, candidates=tuple(candidates) if candidates else None)
    rows, cols = magnitudes.shape
    densities = _row_densities_from_unstructured(scores, sparsity, magnitudes)

    fine_levels = [n for n in spec.candidates if n > 0]
    coarse_levels = list(range(1, super_group + 1))
    combos: list[Tuple[int, int, float]] = [
        (t, n, (t / super_group) * (n / m)) for t in coarse_levels for n in fine_levels
    ]
    combos.append((0, 0, 0.0))

    # A zero-width pad would only copy |W| into the same layout, so the
    # tile sums below read the same values in the same order without it.
    pad_c = (-cols) % (m * super_group)
    padded = np.pad(magnitudes, ((0, 0), (0, pad_c))) if pad_c else magnitudes
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
    # The mask keeps the padded tile grid's layout; the zero tiles that
    # pad a super-group are cropped, so they keep nothing.
    ranks = np.moveaxis(_row_ranks(scores, magnitudes, m, 0.0), 0, -1)[:rows]
    n_groups = ranks.shape[1]
    mask = np.zeros(tiles.shape, dtype=bool)
    fine = _top_n(ranks, n_keep[:, None])
    mask[:, :n_groups] = fine & keep_tiles[:, :n_groups, None] & (n_keep > 0)[:, None, None]
    return mask.reshape(rows, -1)[:, :cols]


@timed("core.mask.make_mask")
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
