"""MegaBlocks-style block-sparse MoE expert layers.

A Mixture-of-Experts FFN routes each token to one expert; stacking the
expert weight matrices gives one block-diagonal GEMM ``A = diag(W_1 ..
W_E)`` whose off-diagonal blocks are *structurally* zero -- exactly the
block-sparse matrices MegaBlocks/stk execute on tensor cores.  Two views
lower to the simulator:

* the **combined** block-diagonal matrix, for the format/traffic axis:
  block-capable patterns (TBS with N=0 blocks) skip the off-diagonal
  zeros outright, while rigid patterns (2:4/TS) must keep explicit
  zeros in their mask and pay the padding;
* **per-expert** GEMMs whose ``b_cols`` follow a seeded token router
  with realistic load imbalance -- the inter-block workload imbalance
  TB-STC's sparsity-aware scheduler exists to absorb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.patterns import DEFAULT_M, PatternFamily
from .generator import GEMMWorkload, pattern_mask, synthetic_weights

__all__ = ["MoESpec", "route_tokens", "build_moe_workloads", "moe_combined_sparsity"]


@dataclass(frozen=True)
class MoESpec:
    """One MoE expert-FFN layer: E experts of ``d_ff x d_model`` each."""

    name: str = "moe.ffn"
    experts: int = 4
    d_model: int = 256
    d_ff: int = 512
    tokens: int = 512
    #: Dirichlet concentration of the router's expert loads; lower is
    #: more skewed (1.0 gives the heavy imbalance real routers show
    #: before load-balancing losses kick in).
    imbalance: float = 1.0

    def __post_init__(self) -> None:
        if self.experts < 2:
            raise ValueError("an MoE layer needs >= 2 experts")
        if min(self.d_model, self.d_ff, self.tokens) < 1:
            raise ValueError(f"invalid MoE size for {self.name}")
        if self.imbalance <= 0:
            raise ValueError("imbalance must be positive")

    @property
    def structural_sparsity(self) -> float:
        """Off-diagonal fraction of the combined matrix: 1 - 1/E."""
        return 1.0 - 1.0 / self.experts

    def scaled(self, scale: int, m: int = DEFAULT_M) -> "MoESpec":
        """Shrink the expert dims and token count, keeping ``m``-alignment."""
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")

        def _shrink(dim: int) -> int:
            return max(m, (dim // scale // m) * m)

        return MoESpec(
            self.name,
            self.experts,
            _shrink(self.d_model),
            _shrink(self.d_ff),
            max(self.experts * 2, self.tokens // scale),
            self.imbalance,
        )


def route_tokens(spec: MoESpec, seed: int = 0) -> np.ndarray:
    """Seeded top-1 router: per-expert token counts summing to ``tokens``.

    Loads are drawn from a Dirichlet(``imbalance``) and rounded with a
    deterministic largest-remainder rule, so every expert count (and
    therefore every per-expert GEMM shape) is a pure function of
    ``(spec, seed)``.
    """
    rng = np.random.default_rng([seed, spec.experts, spec.tokens])
    loads = rng.dirichlet(np.full(spec.experts, spec.imbalance))
    raw = loads * spec.tokens
    counts = np.floor(raw).astype(np.int64)
    remainder = spec.tokens - int(counts.sum())
    if remainder > 0:
        # Largest fractional parts win the leftover tokens; ties break on
        # expert index, keeping the rounding order-stable.
        order = np.lexsort((np.arange(spec.experts), -(raw - counts)))
        counts[order[:remainder]] += 1
    return counts


def moe_combined_sparsity(spec: MoESpec, expert_sparsity: float) -> float:
    """Target sparsity of the combined matrix: structure + in-expert pruning."""
    return spec.structural_sparsity + (1.0 - spec.structural_sparsity) * expert_sparsity


def build_moe_workloads(
    spec: MoESpec,
    family: PatternFamily,
    sparsity: float,
    m: int = DEFAULT_M,
    seed: int = 0,
    scale: int = 1,
) -> Tuple[List[GEMMWorkload], GEMMWorkload]:
    """(per-expert workloads, combined block-diagonal workload).

    ``sparsity`` is the *within-expert* pruning degree; the combined
    matrix's target is lifted by the block-diagonal structure (see
    :func:`moe_combined_sparsity`).  ``sparsity=0`` is the dense
    baseline: an all-ones mask over the block-diagonal values, so dense
    hardware streams the structural zeros as explicit data.

    The per-expert masks are the diagonal slices of the combined
    pattern mask -- one pruning decision, two consumption views -- and
    each expert's ``b_cols`` comes from the seeded router, so the expert
    GEMMs carry the load imbalance into the cycle simulation.
    """
    s = spec.scaled(scale, m=m) if scale > 1 else spec
    experts = [synthetic_weights(s.d_ff, s.d_model, seed=seed + e) for e in range(s.experts)]
    combined = np.zeros((s.experts * s.d_ff, s.experts * s.d_model))
    for e, w in enumerate(experts):
        combined[e * s.d_ff : (e + 1) * s.d_ff, e * s.d_model : (e + 1) * s.d_model] = w

    target = 0.0 if sparsity <= 0.0 else moe_combined_sparsity(s, sparsity)
    mask, tbs = pattern_mask(combined, family, target, m=m)
    counts = route_tokens(s, seed=seed)
    combined_wl = GEMMWorkload(
        name=f"{s.name}.combined[{family.name}@{target:.0%}]",
        values=combined,
        mask=mask,
        b_cols=int(counts.max()),
        m=m,
        family=family,
        tbs=tbs,
    )
    per_expert: List[GEMMWorkload] = []
    for e, w in enumerate(experts):
        block = mask[e * s.d_ff : (e + 1) * s.d_ff, e * s.d_model : (e + 1) * s.d_model]
        per_expert.append(
            GEMMWorkload(
                name=f"{s.name}.expert{e}[{family.name}]",
                values=w,
                mask=block.copy(),
                b_cols=max(1, int(counts[e])),
                m=m,
                family=family,
            )
        )
    return per_expert, combined_wl
