"""The code that ``Conv2d``'s lowering and ``BatchNorm2d.forward`` replaced.

:func:`im2col_strided` builds the patch matrix as a copy of a 6-D
strided view of the padded input.  :func:`col2im_loop` scatters patch
gradients back with one add per output position, and
:func:`batchnorm_forward_two_pass` takes the batch mean and ``x.var``
as two separate passes, centring ``x`` once for each.  Their results
define what the ``src/`` versions must return bit for bit, strides
included (DESIGN §4b).  They live here only as test oracles; nothing in
``src/`` calls them.  :func:`im2col_strided` has ``_im2col``'s signature
and the other two take the layer as ``self``, so a test can install
them with ``monkeypatch.setattr`` on the module or the class.
"""

import numpy as np


def im2col_strided(x: np.ndarray, k: int, stride: int, pad: int):
    """``_im2col`` as a contiguous copy of a strided patch view."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    shape = (n, c, out_h, out_w, k, k)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2] * stride,
        x.strides[3] * stride,
        x.strides[2],
        x.strides[3],
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(n, out_h, out_w, c * k * k)
    return np.ascontiguousarray(cols), out_h, out_w


def col2im_loop(self, gcols: np.ndarray, x_shape) -> np.ndarray:
    """``Conv2d._col2im`` as a loop over every output position."""
    n, c, h, w = x_shape
    k, s, p = self.kernel_size, self.stride, self.padding
    gx = np.zeros((n, c, h + 2 * p, w + 2 * p))
    gcols = gcols.reshape(n, gcols.shape[1], gcols.shape[2], c, k, k)
    for i in range(gcols.shape[1]):
        for j in range(gcols.shape[2]):
            gx[:, :, i * s : i * s + k, j * s : j * s + k] += gcols[:, i, j]
    if p:
        gx = gx[:, :, p:-p, p:-p]
    return gx


def batchnorm_forward_two_pass(self, x: np.ndarray) -> np.ndarray:
    """``BatchNorm2d.forward`` with the mean and ``x.var`` taken apart."""
    if self.training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
        self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
    else:
        mean, var = self.running_mean, self.running_var
    m = mean[None, :, None, None]
    v = var[None, :, None, None]
    self._xhat = (x - m) / np.sqrt(v + self.eps)
    self._std = np.sqrt(v + self.eps)
    return self.params["gamma"][None, :, None, None] * self._xhat + self.params["beta"][
        None, :, None, None
    ]
