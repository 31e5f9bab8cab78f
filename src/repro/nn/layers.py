"""A from-scratch numpy neural-network substrate (the PyTorch stand-in).

Implements exactly what the paper's accuracy experiments need: dense and
*maskable* linear/convolution layers with manual backward passes, the
normalisation/activation/pooling glue, and a transformer encoder block.

Design: every :class:`Module` owns ``params`` and ``grads`` dicts and
implements ``forward`` (caching what backward needs) and ``backward``
(returning the input gradient and accumulating parameter gradients).
Sparse training uses the straight-through convention from the paper's
Sec. III-B: the mask multiplies the weights in ``forward``, while the
gradient flows to the *dense* weights so pruned connections can revive
when the mask is regenerated next epoch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..perf import timed

__all__ = [
    "Module",
    "Linear",
    "Conv2d",
    "ReLU",
    "GELU",
    "BatchNorm2d",
    "LayerNorm",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Sequential",
    "Residual",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
]


class Module:
    """Base class: parameter registry + mask support."""

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.training = True

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def backward_params(self, grad: np.ndarray) -> None:
        """Accumulate every parameter gradient of ``grad``, nothing more.

        ``backward`` without its return value: a training step never reads
        the gradient of the model's input, so a layer whose input gradient
        costs real work (a GEMM, a scatter) skips it here.
        """
        self.backward(grad)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def modules(self) -> List["Module"]:
        """This module plus every registered child, depth-first."""
        return [self]

    def parameters(self) -> List[Tuple["Module", str]]:
        """(owner, name) handles for every parameter, for optimizers."""
        handles = []
        for mod in self.modules():
            for name in mod.params:
                handles.append((mod, name))
        return handles

    def zero_grad(self) -> None:
        for mod in self.modules():
            for name, value in mod.params.items():
                mod.grads[name] = np.zeros_like(value)

    def train(self, mode: bool = True) -> "Module":
        for mod in self.modules():
            mod.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)


def _kaiming(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / max(1, fan_in)), size=shape)


class MaskableMixin:
    """Weight-mask support shared by Linear and Conv2d.

    ``mask`` has the shape of the layer's 2-D weight view (out, in) --
    the GEMM shape the sparsity patterns operate on.
    """

    mask: Optional[np.ndarray] = None

    def weight_matrix(self) -> np.ndarray:
        """The 2-D (out_features, reduction) view of the weight."""
        w = self.params["weight"]
        return w.reshape(w.shape[0], -1)

    def set_mask(self, mask: Optional[np.ndarray]) -> None:
        if mask is not None and mask.shape != self.weight_matrix().shape:
            raise ValueError(
                f"mask shape {mask.shape} != weight matrix shape {self.weight_matrix().shape}"
            )
        self.mask = None if mask is None else mask.astype(bool)

    def effective_weight(self) -> np.ndarray:
        w = self.params["weight"]
        if self.mask is None:
            return w
        return w * self.mask.reshape(w.shape)


class Linear(Module, MaskableMixin):
    """Fully-connected layer ``y = x @ W.T + b`` with optional mask."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, seed: int = 0):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("features must be positive")
        rng = np.random.default_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.params["weight"] = _kaiming(rng, in_features, (out_features, in_features))
        if bias:
            self.params["bias"] = np.zeros(out_features)
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        w = self.effective_weight()
        y = x @ w.T
        if "bias" in self.params:
            y = y + self.params["bias"]
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.backward_params(grad)
        return grad @ self.effective_weight()

    def backward_params(self, grad: np.ndarray) -> None:
        x = self._x
        flat_g = grad.reshape(-1, self.out_features)
        flat_x = x.reshape(-1, self.in_features)
        gw = flat_g.T @ flat_x
        # Straight-through: gradient reaches the dense weight.
        self.grads["weight"] = self.grads.get("weight", 0) + gw
        if "bias" in self.params:
            self.grads["bias"] = self.grads.get("bias", 0) + flat_g.sum(axis=0)


def _patch_index(c: int, h: int, w: int, k: int, stride: int, pad: int):
    """Where each patch element of one sample comes from.

    A flat index over one sample's patch matrix, in im2col's
    ``(out_h, out_w, C, kh, kw)`` column order: each entry is that
    element's offset in the padded ``(C, H+2p, W+2p)`` sample.
    """
    hp, wp = h + 2 * pad, w + 2 * pad
    out_h = (hp - k) // stride + 1
    out_w = (wp - k) // stride + 1
    taps = (np.arange(c)[:, None, None] * hp + np.arange(k)[:, None]) * wp + np.arange(k)
    starts = (np.arange(out_h)[:, None] * wp + np.arange(out_w)) * stride
    return (starts[:, :, None, None, None] + taps).ravel(), out_h, out_w


@timed("nn.conv.im2col")
def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """(N, C, H, W) -> (N, out_h, out_w, C*k*k) patch matrix, one gather."""
    n, c, h, w = x.shape
    index, out_h, out_w = _patch_index(c, h, w, k, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.take(x.reshape(n, -1), index, axis=1)
    return cols.reshape(n, out_h, out_w, -1), out_h, out_w


class Conv2d(Module, MaskableMixin):
    """2-D convolution via im2col -- the GEMM lowering the paper prunes."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        bias: bool = True,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.params["weight"] = _kaiming(
            rng, fan_in, (out_channels, in_channels, kernel_size, kernel_size)
        )
        if bias:
            self.params["bias"] = np.zeros(out_channels)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        cols, out_h, out_w = _im2col(x, self.kernel_size, self.stride, self.padding)
        w2d = self.effective_weight().reshape(self.out_channels, -1)
        y = cols @ w2d.T  # (N, oh, ow, C_out)
        if "bias" in self.params:
            y = y + self.params["bias"]
        self._cache = (x.shape, cols)
        return y.transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_shape, _ = self._cache
        n, _, out_h, out_w = grad.shape
        g = self._param_grads(grad)
        w2d = self.effective_weight().reshape(self.out_channels, -1)
        gcols = (g @ w2d).reshape(n, out_h, out_w, -1)
        return self._col2im(gcols, x_shape)

    def backward_params(self, grad: np.ndarray) -> None:
        self._param_grads(grad)

    def _param_grads(self, grad: np.ndarray) -> np.ndarray:
        """Accumulate the weight and bias gradients; return ``grad`` as
        the ``(N*oh*ow, C_out)`` matrix both GEMMs read."""
        _, cols = self._cache
        g = grad.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        flat_cols = cols.reshape(-1, cols.shape[-1])
        gw = (g.T @ flat_cols).reshape(self.params["weight"].shape)
        self.grads["weight"] = self.grads.get("weight", 0) + gw
        if "bias" in self.params:
            self.grads["bias"] = self.grads.get("bias", 0) + g.sum(axis=0)
        return g

    @timed("nn.conv.col2im")
    def _col2im(self, gcols: np.ndarray, x_shape) -> np.ndarray:
        """Scatter-add patch gradients back onto the (N, C, H, W) input.

        The adjoint of ``_im2col``'s gather: one ``bincount`` of each
        sample's patch gradients over the same patch index.  ``bincount``
        adds in memory order from +0.0, and a pixel's terms sit in
        ``gcols`` with output position (i, j) ascending, so every pixel
        sums its terms in a per-position loop's order, bit for bit.
        ``gx`` stays a view of the padded buffer with that loop's strides,
        because later reductions sum in memory order (DESIGN §4b).
        """
        n, c, h, w = x_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        index, _, _ = _patch_index(c, h, w, k, s, p)
        gx = np.empty((n, c, h + 2 * p, w + 2 * p))
        sums, terms = gx.reshape(n, -1), gcols.reshape(n, -1)
        for b in range(n):
            sums[b] = np.bincount(index, weights=terms[b], minlength=sums.shape[1])
        if p:
            gx = gx[:, :, p:-p, p:-p]
        return gx


class ReLU(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


class GELU(Module):
    """tanh-approximation GELU (BERT's activation)."""

    _C = np.sqrt(2.0 / np.pi)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        inner = self._C * (x + 0.044715 * x**3)
        self._t = np.tanh(inner)
        return 0.5 * x * (1.0 + self._t)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x, t = self._x, self._t
        dinner = self._C * (1.0 + 3 * 0.044715 * x**2)
        dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
        return grad * dy


class BatchNorm2d(Module):
    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.params["gamma"] = np.ones(channels)
        self.params["beta"] = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            # numpy's own variance steps (mean, centre, square, mean), so
            # the same bits as x.var; the centred batch is reused for xhat.
            axes = (0, 2, 3)
            mean = x.mean(axis=axes, keepdims=True)
            centred = x - mean
            var = np.square(centred).mean(axis=axes, keepdims=True)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean.ravel()
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var.ravel()
        else:
            centred = x - self.running_mean[None, :, None, None]
            var = self.running_var[None, :, None, None]
        self._std = np.sqrt(var + self.eps)
        self._xhat = centred / self._std
        return self.params["gamma"][None, :, None, None] * self._xhat + self.params["beta"][
            None, :, None, None
        ]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, std = self._xhat, self._std
        gamma = self.params["gamma"][None, :, None, None]
        axes = (0, 2, 3)
        n = grad.shape[0] * grad.shape[2] * grad.shape[3]
        self.grads["gamma"] = self.grads.get("gamma", 0) + (grad * xhat).sum(axis=axes)
        self.grads["beta"] = self.grads.get("beta", 0) + grad.sum(axis=axes)
        gxhat = grad * gamma
        gx = (
            gxhat
            - gxhat.mean(axis=axes, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=axes, keepdims=True)
        ) / std
        return gx


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.params["gamma"] = np.ones(dim)
        self.params["beta"] = np.zeros(dim)

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        self._std = np.sqrt(var + self.eps)
        self._xhat = (x - mean) / self._std
        return self.params["gamma"] * self._xhat + self.params["beta"]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, std = self._xhat, self._std
        reduce_axes = tuple(range(grad.ndim - 1))
        self.grads["gamma"] = self.grads.get("gamma", 0) + (grad * xhat).sum(axis=reduce_axes)
        self.grads["beta"] = self.grads.get("beta", 0) + grad.sum(axis=reduce_axes)
        gxhat = grad * self.params["gamma"]
        gx = (
            gxhat
            - gxhat.mean(axis=-1, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        ) / std
        return gx


class MaxPool2d(Module):
    def __init__(self, size: int = 2):
        super().__init__()
        self.size = size

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        if h % s or w % s:
            raise ValueError(f"spatial dims {h}x{w} not divisible by pool size {s}")
        view = x.reshape(n, c, h // s, s, w // s, s)
        out = view.max(axis=(3, 5))
        self._mask = view == out[:, :, :, None, :, None]
        self._shape = x.shape
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        s = self.size
        expanded = grad[:, :, :, None, :, None] * self._mask
        return expanded.reshape(self._shape)


class GlobalAvgPool2d(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, c, h, w = self._shape
        return np.broadcast_to(grad[:, :, None, None], self._shape) / (h * w)


class Sequential(Module):
    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def modules(self) -> List[Module]:
        out: List[Module] = [self]
        for layer in self.layers:
            out.extend(layer.modules())
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def backward_params(self, grad: np.ndarray) -> None:
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        if self.layers:
            self.layers[0].backward_params(grad)


class Residual(Module):
    """``y = inner(x) + x`` with matching shapes (ResNet basic shortcut)."""

    def __init__(self, inner: Module):
        super().__init__()
        self.inner = inner

    def modules(self) -> List[Module]:
        return [self] + self.inner.modules()

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.inner(x) + x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.inner.backward(grad) + grad


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class MultiHeadSelfAttention(Module):
    """Standard MHSA over (batch, seq, dim) with maskable projections."""

    def __init__(self, dim: int, heads: int = 4, seed: int = 0):
        super().__init__()
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.qkv = Linear(dim, 3 * dim, seed=seed)
        self.out = Linear(dim, dim, seed=seed + 1)

    def modules(self) -> List[Module]:
        return [self] + self.qkv.modules() + self.out.modules()

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, s, _ = x.shape
        return x.reshape(b, s, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, s, d = x.shape
        qkv = self.qkv(x)
        q, k, v = np.split(qkv, 3, axis=-1)
        q, k, v = self._split(q), self._split(k), self._split(v)  # (b, h, s, hd)
        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        attn = _softmax(scores)
        ctx = attn @ v  # (b, h, s, hd)
        self._cache = (q, k, v, attn, scale, (b, s, d))
        merged = ctx.transpose(0, 2, 1, 3).reshape(b, s, d)
        return self.out(merged)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        q, k, v, attn, scale, (b, s, d) = self._cache
        gmerged = self.out.backward(grad)
        gctx = gmerged.reshape(b, s, self.heads, self.head_dim).transpose(0, 2, 1, 3)
        gattn = gctx @ v.transpose(0, 1, 3, 2)
        gv = attn.transpose(0, 1, 3, 2) @ gctx
        # softmax backward
        gscores = attn * (gattn - (gattn * attn).sum(axis=-1, keepdims=True))
        gscores *= scale
        gq = gscores @ k
        gk = gscores.transpose(0, 1, 3, 2) @ q
        merge = lambda t: t.transpose(0, 2, 1, 3).reshape(b, s, d)
        gqkv = np.concatenate([merge(gq), merge(gk), merge(gv)], axis=-1)
        return self.qkv.backward(gqkv)


class TransformerEncoderLayer(Module):
    """Pre-LN encoder block: LN -> MHSA -> +x, LN -> FFN -> +x."""

    def __init__(self, dim: int, heads: int = 4, ffn_mult: int = 4, seed: int = 0):
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, heads, seed=seed)
        self.ln2 = LayerNorm(dim)
        self.ffn = Sequential(
            Linear(dim, ffn_mult * dim, seed=seed + 2),
            GELU(),
            Linear(ffn_mult * dim, dim, seed=seed + 3),
        )

    def modules(self) -> List[Module]:
        return (
            [self]
            + self.ln1.modules()
            + self.attn.modules()
            + self.ln2.modules()
            + self.ffn.modules()
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = x + self.attn(self.ln1(x))
        return y + self.ffn(self.ln2(y))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        g_ffn = self.ln2.backward(self.ffn.backward(grad))
        g_mid = grad + g_ffn
        g_attn = self.ln1.backward(self.attn.backward(g_mid))
        return g_mid + g_attn
