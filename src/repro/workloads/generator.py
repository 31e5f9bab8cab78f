"""Synthetic sparse-weight generation and per-pattern mask projection.

The paper's hardware evaluation prunes real trained weights; offline we
generate weights with the *statistics that matter for the hardware*:

* heavy-tailed magnitudes (trained weights are approximately Laplacian);
* per-row and per-column scale variation (channel importance spread),
  which is what creates the block-level N diversity TBS exploits
  (Fig. 17's row/col/other mix) and the inter-block workload imbalance
  the scheduler fixes;
* optional channel "dead zones" (whole near-zero rows), common in
  over-parameterised CNN layers.

``build_workload`` projects the weights onto any pattern family at a
target sparsity and packages everything the simulator needs.

Under the iso-accuracy protocol every architecture prunes the *same*
layer weights, so a sweep asks for each layer many times.
``synthetic_weights`` generates each distinct argument set once per
process and hands every later caller the same read-only array (see
:func:`_memoized`).
"""

from __future__ import annotations

import functools
import inspect
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.masks import make_mask
from ..core.patterns import DEFAULT_M, PatternFamily, PatternSpec
from ..core.sparsify import TBSResult, tbs_sparsify
from ..core.transposable import transposable_sparsify
from ..perf import timed
from ..perf.memo import ArrayMemo
from .layers import LayerSpec

__all__ = ["GEMMWorkload", "synthetic_weights", "build_workload", "pattern_mask"]


@dataclass
class GEMMWorkload:
    """One sparse GEMM ready for simulation: ``D = (values*mask) @ B``."""

    name: str
    values: np.ndarray  # dense weight values (rows x cols)
    mask: np.ndarray  # boolean keep-mask
    b_cols: int
    m: int = DEFAULT_M
    family: PatternFamily = PatternFamily.TBS
    tbs: Optional[TBSResult] = None  # populated when family is TBS

    def __post_init__(self) -> None:
        if self.values.shape != self.mask.shape:
            raise ValueError("values and mask shapes differ")
        if self.b_cols < 1:
            raise ValueError("b_cols must be positive")
        # The fault injectors (and every consumer of ``mask``) assume a
        # boolean array; a float/int mask would silently change bitflip
        # targeting and nnz arithmetic.  Exact 0/1 arrays are coerced,
        # anything else is rejected.
        if self.mask.dtype != np.bool_:
            mask = np.asarray(self.mask)
            if not np.isin(mask, (0, 1)).all():
                raise ValueError(
                    f"mask must be boolean (or exactly 0/1), got dtype {mask.dtype} "
                    "with values outside {0, 1}"
                )
            self.mask = mask.astype(bool)

    @property
    def shape(self):
        return self.values.shape

    @property
    def sparse_values(self) -> np.ndarray:
        return np.where(self.mask, self.values, 0.0)

    @property
    def nnz(self) -> int:
        return int(self.mask.sum())

    @property
    def sparsity(self) -> float:
        return 1.0 - self.nnz / self.mask.size

    @property
    def macs(self) -> int:
        """Sparse multiply-accumulates (dense would be rows*cols*b_cols)."""
        return self.nnz * self.b_cols

    @property
    def dense_macs(self) -> int:
        return self.values.size * self.b_cols


#: Byte budget of the weights memo.  It holds one whole model at the
#: CLI's default ``--scale 4`` (OPT-6.7B's four layers are ~101 MB there;
#: all of fig13's layers at scale 8 are ~27 MB), so the architectures of
#: a model share its weights at the sizes people run.
WEIGHTS_MEMO_BYTES = 256 << 20

_WEIGHTS_MEMO = ArrayMemo(WEIGHTS_MEMO_BYTES)


def _memoized(generate):
    """Serve ``generate`` from the weights memo for integer seeds.

    The key is every argument bound against ``generate``'s signature,
    defaults applied, so a parameter added to the signature joins the
    key by construction.  Any other seed (``None``, a ``Generator``, a
    ``SeedSequence``, a sequence) draws fresh entropy or carries state,
    so it bypasses the memo.  Every returned array is read-only: a hit
    hands the same object to each caller.
    """
    signature = inspect.signature(generate)

    @functools.wraps(generate)
    def memoized(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if not isinstance(bound.arguments["seed"], numbers.Integral):
            weights = generate(*args, **kwargs)
            weights.setflags(write=False)
            return weights
        key = tuple(bound.arguments.values())
        hit = _WEIGHTS_MEMO.get(key)
        if hit is not None:
            return hit
        return _WEIGHTS_MEMO.put(key, generate(*args, **kwargs))

    return memoized


@_memoized
def synthetic_weights(
    rows: int,
    cols: int,
    seed: int = 0,
    row_scale_sigma: float = 0.7,
    col_scale_sigma: float = 0.4,
    dead_row_fraction: float = 0.05,
    local_structure: float = 0.5,
    block_scale_sigma: float = 0.6,
    block: int = 8,
) -> np.ndarray:
    """Weights with trained-layer statistics (see module docstring).

    ``local_structure`` adds per-block row/column scale fields on top of
    the global channel scales: within each ``block x block`` tile some
    rows or columns dominate, independently per tile.  Trained layers
    show exactly this local anisotropy -- it is what gives TBS's
    per-block direction choice its edge over matrix-level row-wise
    patterns (Fig. 4(b), Fig. 17).

    The returned array is read-only; copy it before writing.
    """
    if rows < 1 or cols < 1:
        raise ValueError("weight dims must be positive")
    rng = np.random.default_rng(seed)
    base = rng.laplace(0.0, 1.0, size=(rows, cols))
    row_scale = np.exp(rng.normal(0.0, row_scale_sigma, size=(rows, 1)))
    col_scale = np.exp(rng.normal(0.0, col_scale_sigma, size=(1, cols)))
    weights = base * row_scale * col_scale
    if local_structure > 0:
        n_br = -(-rows // block)
        n_bc = -(-cols // block)
        # Per-block, per-lane log-scales in both orientations.
        local_rows = rng.normal(0.0, local_structure, size=(n_br, n_bc, block, 1))
        local_cols = rng.normal(0.0, local_structure, size=(n_br, n_bc, 1, block))
        # Whole-block importance varies too (feature-map locality): this
        # is what produces the fully dense / fully empty blocks that the
        # paper's Fig. 17 buckets as "other".
        block_scale = rng.normal(0.0, block_scale_sigma, size=(n_br, n_bc, 1, 1))
        field = np.exp(local_rows + local_cols + block_scale)
        full = field.transpose(0, 2, 1, 3).reshape(n_br * block, n_bc * block)
        weights = weights * full[:rows, :cols]
    if dead_row_fraction > 0:
        dead = rng.random(rows) < dead_row_fraction
        weights[dead] *= 0.01
    return weights


def pattern_mask(
    weights: np.ndarray,
    family: PatternFamily,
    sparsity: float,
    m: int = DEFAULT_M,
    tsolver: Optional[str] = None,
):
    """Project ``weights`` onto ``family`` at ``sparsity``.

    Returns ``(mask, tbs)`` where ``tbs`` is the :class:`TBSResult`
    metadata for the TBS family and ``None`` otherwise.  This is the
    per-family dispatch shared by :func:`build_workload` and the
    scenario generators (stencil/MoE/inference24), including the
    paper's STC caveat: the TS baseline always runs 4:8, so its
    effective sparsity saturates at 50%.
    """
    if family is PatternFamily.TBS:
        tbs = tbs_sparsify(weights, m=m, sparsity=sparsity)
        return tbs.mask, tbs
    if family is PatternFamily.NMT:
        mask, _ = transposable_sparsify(weights, m=m, sparsity=sparsity, backend=tsolver)
        return mask, None
    if family is PatternFamily.TS:
        # NVIDIA STC supports only the fixed 2:4/4:8 ratio.
        effective = min(sparsity, 0.5)
        return make_mask(weights, PatternSpec(PatternFamily.TS, m=m, sparsity=effective)), None
    return make_mask(weights, PatternSpec(family, m=m, sparsity=sparsity)), None


@timed("workloads.build")
def build_workload(
    layer: LayerSpec,
    family: PatternFamily,
    sparsity: float,
    m: int = DEFAULT_M,
    seed: int = 0,
    scale: int = 1,
    tsolver: Optional[str] = None,
) -> GEMMWorkload:
    """Generate weights for ``layer`` and prune them with ``family``.

    ``scale`` downsamples the layer dimensions (see
    :meth:`LayerSpec.scaled`) to keep the Python block-level simulation
    tractable; ratios between architectures are preserved.  ``tsolver``
    picks the :mod:`repro.core.tsolvers` backend for the NMT family
    (other families ignore it).

    Note the STC caveat from the paper (Table I footnote): the TS
    baseline always runs 4:8, so its effective sparsity saturates at 50%.
    """
    spec_layer = layer.scaled(scale, m=m) if scale > 1 else layer
    weights = synthetic_weights(spec_layer.rows, spec_layer.cols, seed=seed)
    mask, tbs = pattern_mask(weights, family, sparsity, m=m, tsolver=tsolver)

    return GEMMWorkload(
        name=f"{spec_layer.name}[{family.name}@{sparsity:.0%}]",
        values=weights,
        mask=mask,
        b_cols=spec_layer.b_cols,
        m=m,
        family=family,
        tbs=tbs,
    )
