"""GEMM shapes of the evaluated layers (Sec. VII-A3).

Every workload in the paper reduces to SpMM ``D = A x B`` where ``A`` is
the sparse weight matrix:

* convolutions are im2col-lowered: ``A`` is ``(C_out, C_in*kh*kw)`` and
  ``B`` is ``(C_in*kh*kw, H_out*W_out)``;
* transformer projections are plain ``(d_out, d_in) x (d_in, tokens)``.

The shapes below follow the published architectures (ResNet-50,
BERT-base, OPT-6.7B).  Because the simulator models each block
individually in Python, layer shapes can be scaled down by an integer
factor (``scale``) while preserving the aspect ratios and block
statistics -- the standard practice for cycle-level Python simulators;
speedups and EDP ratios are shape-ratio driven and survive the scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["LayerSpec", "resnet50_layers", "bert_layers", "opt_6_7b_layers", "MODEL_LAYERS"]


@dataclass(frozen=True)
class LayerSpec:
    """One GEMM-lowered layer: ``A (rows x cols)`` times ``B (cols x b_cols)``."""

    name: str
    rows: int  # independent dim of A (e.g. C_out)
    cols: int  # reduction dim of A (e.g. C_in * kh * kw)
    b_cols: int  # columns of B (e.g. output pixels or tokens)

    def __post_init__(self) -> None:
        if min(self.rows, self.cols, self.b_cols) < 1:
            raise ValueError(f"invalid layer shape for {self.name}")

    def scaled(self, scale: int, m: int = 8) -> "LayerSpec":
        """Divide every dimension by ``scale``, keeping M-alignment."""
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")

        def _shrink(dim: int) -> int:
            return max(m, (dim // scale // m) * m)

        return LayerSpec(self.name, _shrink(self.rows), _shrink(self.cols), max(8, self.b_cols // scale))


def _conv(name: str, c_out: int, c_in: int, k: int, out_hw: int) -> LayerSpec:
    return LayerSpec(name, c_out, c_in * k * k, out_hw * out_hw)


def resnet50_layers() -> List[LayerSpec]:
    """Representative ResNet-50 stages (stem and final FC excluded --
    they are never pruned, Sec. VII-A3)."""
    return [
        _conv("res50.conv2_1x1a", 64, 256, 1, 56),
        _conv("res50.conv2_3x3", 64, 64, 3, 56),
        _conv("res50.conv2_1x1b", 256, 64, 1, 56),
        _conv("res50.conv3_1x1a", 128, 512, 1, 28),
        _conv("res50.conv3_3x3", 128, 128, 3, 28),
        _conv("res50.conv3_1x1b", 512, 128, 1, 28),
        _conv("res50.conv4_1x1a", 256, 1024, 1, 14),
        _conv("res50.conv4_3x3", 256, 256, 3, 14),
        _conv("res50.conv4_1x1b", 1024, 256, 1, 14),
        _conv("res50.conv5_1x1a", 512, 2048, 1, 7),
        _conv("res50.conv5_3x3", 512, 512, 3, 7),
        _conv("res50.conv5_1x1b", 2048, 512, 1, 7),
    ]


def bert_layers(seq_len: int = 128) -> List[LayerSpec]:
    """BERT-base encoder layer GEMMs (hidden 768, FFN 3072)."""
    h = 768
    return [
        LayerSpec("bert.qkv", 3 * h, h, seq_len),
        LayerSpec("bert.attn_out", h, h, seq_len),
        LayerSpec("bert.ffn_up", 4 * h, h, seq_len),
        LayerSpec("bert.ffn_down", h, 4 * h, seq_len),
    ]


def opt_6_7b_layers(seq_len: int = 128) -> List[LayerSpec]:
    """OPT-6.7B decoder layer GEMMs (hidden 4096, FFN 16384)."""
    h = 4096
    return [
        LayerSpec("opt.qkv", 3 * h, h, seq_len),
        LayerSpec("opt.attn_out", h, h, seq_len),
        LayerSpec("opt.ffn_up", 4 * h, h, seq_len),
        LayerSpec("opt.ffn_down", h, 4 * h, seq_len),
    ]


#: Model name -> (layer list, per-layer repeat counts for end-to-end runs).
MODEL_LAYERS: Dict[str, Tuple] = {
    "resnet50": (resnet50_layers, (1, 3, 3, 1, 4, 4, 1, 6, 6, 1, 3, 3)),
    "bert": (bert_layers, (12, 12, 12, 12)),
    "opt-6.7b": (opt_6_7b_layers, (32, 32, 32, 32)),
}
