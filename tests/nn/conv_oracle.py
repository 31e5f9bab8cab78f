"""The loops that ``Conv2d._col2im`` and ``BatchNorm2d.forward`` replaced.

:func:`col2im_loop` scatters patch gradients back with one add per
output position, and :func:`batchnorm_forward_two_pass` takes the batch
mean and ``x.var`` as two separate passes, centring ``x`` once for each.
Their results define what the ``src/`` versions must return bit for bit,
strides included (DESIGN §4b).  They live here only as test oracles;
nothing in ``src/`` calls them.  Both take the layer as ``self``, so a
test can install them with ``monkeypatch.setattr`` on the class.
"""

import numpy as np


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
