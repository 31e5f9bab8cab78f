"""Sparsity-pattern taxonomy for the TB-STC reproduction.

The paper (Sec. II-A, Fig. 4(a)) compares five sparsity-pattern families:

* ``US``   -- unstructured sparsity (element-wise top-k).
* ``TS``   -- tile-wise N:M (NVIDIA Sparse Tensor Core style, fixed N).
* ``RS_V`` -- row-wise N:M with per-row N (VEGETA).
* ``RS_H`` -- row-wise hierarchical N:M (HighLight).
* ``TBS``  -- transposable block-wise N:M (this paper's contribution).

Dimension naming follows the paper's Fig. 3(a): for ``D = A @ B`` the
*independent* dimension of ``A`` is its row axis (rows survive into ``D``)
and the *reduction* dimension is its column axis (contracted with ``B``).
"Row-wise N:M" therefore means N:M groups laid out *along the reduction
dimension* (within a row), and "column-wise N:M" means groups along the
independent dimension (within a column).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple


class PatternFamily(enum.Enum):
    """The sparsity-pattern families compared throughout the paper.

    ``NMT`` is the strictly-transposable N:M baseline (Hubara et al.,
    ref. [25]): every ``M x M`` block satisfies N:M in *both*
    dimensions, built by the solver backends in
    :mod:`repro.core.tsolvers`.
    """

    US = "unstructured"
    TS = "tile-wise"
    RS_V = "row-wise-vegeta"
    RS_H = "row-wise-highlight"
    TBS = "transposable-block-wise"
    NMT = "transposable-nm"


class Direction(enum.Enum):
    """Per-block sparsity dimension of a TBS block (Fig. 8(a) ``Sparsity dim.``).

    ``ROW`` means the N:M groups run along the reduction dimension (each row
    of the block keeps at most N of its M elements); ``COL`` means the groups
    run along the independent dimension (each column keeps at most N).
    """

    ROW = 0
    COL = 1


#: The paper's experimental configuration (Sec. VII-A3): M = 8 and the
#: candidate non-zero counts are the divisor powers of two of M plus zero.
DEFAULT_M = 8
DEFAULT_CANDIDATES = (0, 1, 2, 4, 8)


def default_candidates(m: int) -> Tuple[int, ...]:
    """Candidate N values for block size ``m``: 0 and the powers of two <= m.

    Matches the paper's ``M = 8, N in {0, 1, 2, 4, 8}`` choice and
    generalises it to other block sizes for the Fig. 15(a) sweep.
    """
    if m < 1:
        raise ValueError(f"block size must be positive, got {m}")
    cands = [0]
    power = 1
    while power <= m:
        cands.append(power)
        power *= 2
    if cands[-1] != m and m not in cands:
        cands.append(m)
    return tuple(cands)


@dataclass(frozen=True)
class NMConfig:
    """An N:M ratio (keep at most ``n`` of every ``m`` elements)."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"M must be positive, got {self.m}")
        if not 0 <= self.n <= self.m:
            raise ValueError(f"N must be in [0, {self.m}], got {self.n}")

    def __str__(self) -> str:  # e.g. "2:4"
        return f"{self.n}:{self.m}"


@dataclass(frozen=True)
class PatternSpec:
    """A fully-specified sparsity-pattern request.

    Bundles the family with its parameters so that the mask generators,
    the storage formats and the simulator all speak the same language.
    """

    family: PatternFamily
    m: int = DEFAULT_M
    sparsity: float = 0.5
    candidates: Tuple[int, ...] = field(default=None)  # type: ignore[assignment]
    fixed_n: int = None  # type: ignore[assignment]  # TS only

    def __post_init__(self) -> None:
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError(f"sparsity must be in [0, 1], got {self.sparsity}")
        if self.candidates is None:
            object.__setattr__(self, "candidates", default_candidates(self.m))
        bad = [n for n in self.candidates if not 0 <= n <= self.m]
        if bad:
            raise ValueError(f"candidates {bad} out of range for M={self.m}")
        if self.family is PatternFamily.TS and self.fixed_n is None:
            # TS uses one N for the whole matrix; derive it from the target
            # sparsity (the paper's TS baseline uses 4:8, i.e. 50%).
            n = round((1.0 - self.sparsity) * self.m)
            object.__setattr__(self, "fixed_n", max(0, min(self.m, n)))


def nearest_candidates_grid(density, m: int, candidates: Sequence[int]):
    """Pick, per density, the candidate N whose density N/M is closest.

    Implements Algorithm 1 step 2 (``N_p = argmin |N_i / M - d_p|``; the
    paper's listing writes the sparsity degree ``s_p`` where the density
    is clearly intended -- N/M is a density, and matching it against a
    sparsity would invert the selection).  Ties break toward the smaller
    N so that the overall mask never exceeds the target density:
    candidates are sorted ascending, so the first argmin along the
    candidate axis realises the ``(abs(n / m - density), n)``
    lexicographic order of the scalar oracle in
    ``tests/core/topn_oracle.py``.  Returns an int64 array shaped like
    ``density``.
    """
    import numpy as np

    if not candidates:
        raise ValueError("candidate list must not be empty")
    cands = np.asarray(sorted(candidates), dtype=np.int64)
    density = np.asarray(density, dtype=np.float64)
    diffs = np.abs(cands / m - density[..., None])
    return cands[np.argmin(diffs, axis=-1)]


def is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def log2_choose(n: int, k: int) -> float:
    """log2 of the binomial coefficient C(n, k) via lgamma (overflow-safe)."""
    if k < 0 or k > n:
        return float("-inf")
    if k == 0 or k == n:
        return 0.0
    ln = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return ln / math.log(2.0)
