"""SparStencil-style stencil kernels lowered to sparse GEMM workloads.

A k-point stencil update is a convolution with a fixed, mostly-zero
3^dims kernel: the star-shaped 5-point (2-D) / 7-point (3-D) stencils
touch only the axis-aligned neighbours, the box-shaped 9-point /
27-point variants touch the whole 3^dims neighbourhood.  Following
SparStencil, the kernel is im2col-lowered exactly like a convolution --
``A`` is ``(fields, fields * 3^dims)``, ``B`` is the patch matrix over
the grid points -- and the stencil's *fixed* zero structure is then
expressed as a structured-sparsity transformation: the structural zeros
carry zero magnitude, so projecting the lowered weights onto any
pattern family at a sparsity at or above the structural level absorbs
the stencil shape into the pattern's own mask.  Families that cannot
express the shape (e.g. the rigid 4:8 TS pattern against a 20/27-zero
3-D star) keep explicit zeros in their mask and pay the padding --
which is exactly the win/loss axis ``run_scenarios`` measures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.patterns import DEFAULT_M, PatternFamily
from .generator import GEMMWorkload, pattern_mask, synthetic_weights
from .layers import LayerSpec

__all__ = [
    "StencilSpec",
    "STENCILS",
    "stencil_tap_mask",
    "build_stencil_workload",
]


def stencil_tap_mask(dims: int, kind: str) -> np.ndarray:
    """Boolean keep-mask over the 3^dims kernel taps, in raster order.

    ``star`` keeps the centre plus the axis-aligned offsets (2*dims + 1
    taps: the classic 5-point/7-point shapes); ``box`` keeps all 3^dims.
    """
    if dims not in (2, 3):
        raise ValueError(f"stencil dims must be 2 or 3, got {dims}")
    if kind not in ("star", "box"):
        raise ValueError(f"stencil kind must be 'star' or 'box', got {kind!r}")
    offsets = list(itertools.product((-1, 0, 1), repeat=dims))
    if kind == "box":
        return np.ones(len(offsets), dtype=bool)
    return np.array([sum(o != 0 for o in off) <= 1 for off in offsets], dtype=bool)


@dataclass(frozen=True)
class StencilSpec:
    """One stencil kernel over a ``fields``-deep grid of ``grid^dims`` points."""

    name: str
    dims: int  # 2 or 3
    kind: str  # "star" | "box"
    fields: int = 64  # coupled field components (the im2col channel depth)
    grid: int = 32  # points per grid axis

    def __post_init__(self) -> None:
        stencil_tap_mask(self.dims, self.kind)  # validates dims/kind
        if self.fields < 1 or self.grid < 1:
            raise ValueError(f"invalid stencil size for {self.name}")

    @property
    def footprint(self) -> int:
        """Taps in the full (box) neighbourhood: 3^dims."""
        return 3**self.dims

    @property
    def taps(self) -> int:
        """Live taps of this stencil shape (5/7 star, 9/27 box)."""
        return int(stencil_tap_mask(self.dims, self.kind).sum())

    @property
    def structural_sparsity(self) -> float:
        """Fraction of the lowered kernel that is structurally zero."""
        return 1.0 - self.taps / self.footprint

    def layer(self) -> LayerSpec:
        """The im2col-lowered GEMM shape (``A`` is fields x fields*3^dims)."""
        return LayerSpec(self.name, self.fields, self.fields * self.footprint, self.grid**self.dims)

    def scaled(self, scale: int, m: int = DEFAULT_M) -> "StencilSpec":
        """Shrink the field depth and grid, keeping ``m``-alignment.

        Scaling happens on ``fields`` (not on the lowered cols) so the
        tap structure stays aligned to whole 3^dims groups: the lowered
        reduction dim is always ``fields * 3^dims``, and with ``fields``
        a multiple of ``m`` both GEMM dims stay ``m``-divisible (the
        footprint is odd, so ``m`` must divide ``fields``).
        """
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        fields = max(m, (self.fields // scale // m) * m)
        grid = max(2, self.grid // scale)
        return StencilSpec(self.name, self.dims, self.kind, fields, grid)

    def structure(self) -> np.ndarray:
        """The fixed zero structure of the lowered ``A`` matrix.

        Every output field couples to every input field through the same
        stencil shape, so each row repeats the tap mask once per field.
        """
        row = np.repeat(stencil_tap_mask(self.dims, self.kind)[None, :], self.fields, axis=0)
        return np.broadcast_to(row.reshape(-1), (self.fields, self.fields * self.footprint)).copy()


#: The evaluated stencil shapes (SparStencil's 2-D/3-D star/box set).
STENCILS: Dict[str, StencilSpec] = {
    "star5": StencilSpec("stencil.star5_2d", dims=2, kind="star"),
    "box9": StencilSpec("stencil.box9_2d", dims=2, kind="box"),
    "star7": StencilSpec("stencil.star7_3d", dims=3, kind="star", grid=16),
    "box27": StencilSpec("stencil.box27_3d", dims=3, kind="box", grid=16),
}


def build_stencil_workload(
    spec: StencilSpec,
    family: PatternFamily,
    sparsity: float,
    m: int = DEFAULT_M,
    seed: int = 0,
    scale: int = 1,
    tsolver: Optional[str] = None,
) -> GEMMWorkload:
    """Lower ``spec`` and project it onto ``family`` at >= its structure.

    The effective target is ``max(sparsity, structural)`` (except for the
    dense ``sparsity=0`` baseline, which keeps an all-ones mask and pays
    for the structural zeros as explicit values -- the cost of running a
    stencil on dense hardware): a pattern cannot prune *less* than the
    stencil shape already does.
    """
    s = spec.scaled(scale, m=m) if scale > 1 else spec
    layer = s.layer()
    structure = s.structure()
    weights = synthetic_weights(layer.rows, layer.cols, seed=seed) * structure
    target = sparsity if sparsity <= 0.0 else max(sparsity, s.structural_sparsity)
    mask, tbs = pattern_mask(weights, family, target, m=m, tsolver=tsolver)
    return GEMMWorkload(
        name=f"{layer.name}[{family.name}@{target:.0%}]",
        values=weights,
        mask=mask,
        b_cols=layer.b_cols,
        m=m,
        family=family,
        tbs=tbs,
    )

