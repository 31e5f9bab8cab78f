"""8-bit weight quantization (the Fig. 15(b) "Q+S" experiment).

Symmetric per-output-channel int8 fake quantization of the (masked)
weights: scale = max|w| / 127 per output row, weights round to the int8
grid and dequantize in place.  Combined with TBS pruning it roughly
halves the remaining weight traffic (FP16 -> INT8), which is where the
extra 1.33-1.39x speedup in Fig. 15(b) comes from.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .layers import Module
from .models import prunable_layers

__all__ = ["quantize_weights", "quantize_model"]


def quantize_weights(weights: np.ndarray, bits: int = 8) -> np.ndarray:
    """Per-output-row symmetric fake quantization."""
    if bits < 2 or bits > 16:
        raise ValueError(f"bits must be in [2, 16], got {bits}")
    w = np.asarray(weights, dtype=np.float64)
    flat = w.reshape(w.shape[0], -1)
    qmax = 2 ** (bits - 1) - 1
    scale = np.abs(flat).max(axis=1, keepdims=True) / qmax
    scale[scale == 0] = 1.0
    q = np.clip(np.round(flat / scale), -qmax - 1, qmax)
    return (q * scale).reshape(w.shape)


def quantize_model(model: Module, bits: int = 8) -> List[str]:
    """Fake-quantize the weights of the model's prunable layers in place.

    Returns the list of touched parameter descriptions.
    """
    touched = []
    for i, layer in enumerate(prunable_layers(model)):
        layer.params["weight"] = quantize_weights(layer.params["weight"], bits=bits)
        touched.append(f"{type(layer).__name__}[{i}].weight")
    return touched
