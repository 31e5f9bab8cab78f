"""Mask-similarity and block-distribution analyses (Fig. 4(b), Fig. 17).

The paper quantifies how close each structured pattern lands to the
unstructured optimum by comparing the structured mask against the
unstructured mask generated from the *same* scores at the *same* target
sparsity.  TBS reaches 85.31%-91.62% similarity, far above the other N:M
patterns (Fig. 4(b)).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from .masks import make_mask, unstructured_mask
from .patterns import DEFAULT_M, PatternFamily, PatternSpec

__all__ = [
    "mask_agreement",
    "pattern_similarity_sweep",
]


def _validate_pair(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"mask shapes differ: {a.shape} vs {b.shape}")


def mask_agreement(mask: np.ndarray, reference: np.ndarray) -> float:
    """Fraction of positions where the two masks agree (keep or prune).

    This is the paper's "mask similarity": at equal sparsity it equals
    ``1 - L1(mask, reference) / size``, the complement of the normalised L1
    distance Algorithm 1 minimises per block.
    """
    _validate_pair(mask, reference)
    if mask.size == 0:
        return 1.0
    return float((mask.astype(bool) == reference.astype(bool)).mean())


def pattern_similarity_sweep(
    scores: np.ndarray,
    sparsity: float = 0.5,
    m: int = DEFAULT_M,
    families: Optional[Sequence[PatternFamily]] = None,
) -> Dict[str, float]:
    """Similarity of every structured pattern with US -- the Fig. 4(b) rows."""
    if families is None:
        families = [PatternFamily.TS, PatternFamily.RS_V, PatternFamily.RS_H, PatternFamily.TBS]
    reference = unstructured_mask(scores, sparsity)
    out: Dict[str, float] = {}
    for family in families:
        spec = PatternSpec(family, m=m, sparsity=sparsity)
        out[family.name] = mask_agreement(make_mask(scores, spec), reference)
    return out
