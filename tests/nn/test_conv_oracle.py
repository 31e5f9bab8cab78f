"""Conv2d's tap-wise col2im and BatchNorm's one-centring forward match their loops.

``Conv2d._col2im`` scatters by kernel tap and ``BatchNorm2d.forward``
centres the batch once; the loops they replaced live in
:mod:`tests.nn.conv_oracle` (DESIGN §4b).  An nn perf change must be
bit-exact, so every comparison here is ``np.array_equal`` on values plus
equal strides (BatchNorm's reductions sum in memory order, so a layout
change alone would move rounding), and loss histories go through
``float.hex``.  Both sides run in this process, so the suite holds on
any BLAS build without a committed golden.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.patterns import PatternFamily
from repro.nn.data import image_dataset
from repro.nn.layers import BatchNorm2d, Conv2d
from repro.nn.models import make_cnn
from repro.nn.train import train

from .conv_oracle import batchnorm_forward_two_pass, col2im_loop


def _values(rng, shape):
    """Normal values spread over six decades, so any change in the order
    a sum adds its terms shows up in the last bits."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)


def _assert_bit_equal(fast, ref):
    assert fast.shape == ref.shape
    assert fast.strides == ref.strides
    assert np.array_equal(fast, ref)


# ---------------------------------------------------------------------------
# col2im
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    kernel=st.integers(1, 5),
    stride=st.integers(1, 2),
    padding=st.integers(0, 2),
    n=st.integers(1, 3),
    channels=st.integers(1, 3),
    extra_h=st.integers(0, 7),
    extra_w=st.integers(0, 7),
    seed=st.integers(0, 2**16),
)
@example(kernel=3, stride=2, padding=1, n=2, channels=2, extra_h=0, extra_w=1, seed=0)
@example(kernel=4, stride=2, padding=0, n=1, channels=1, extra_h=3, extra_w=5, seed=1)
@example(kernel=5, stride=1, padding=2, n=2, channels=3, extra_h=6, extra_w=2, seed=2)
def test_col2im_matches_per_position_loop(kernel, stride, padding, n, channels, extra_h, extra_w, seed):
    # extra_h/extra_w set h + 2p - k, so odd values under stride 2 leave
    # a ragged last row/column the scatter must not cover.
    h = max(1, kernel - 2 * padding + extra_h)
    w = max(1, kernel - 2 * padding + extra_w)
    conv = Conv2d(channels, 2, kernel_size=kernel, stride=stride, padding=padding)
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    rng = np.random.default_rng(seed)
    gcols = _values(rng, (n, out_h, out_w, channels * kernel * kernel))
    x_shape = (n, channels, h, w)
    _assert_bit_equal(conv._col2im(gcols, x_shape), col2im_loop(conv, gcols, x_shape))


def test_conv_backward_matches_with_loop_col2im(monkeypatch):
    """The whole backward through the public API, at the CNN proxy's shapes."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 12, 16, 16))
    conv = Conv2d(12, 12, 3, padding=1, seed=4)
    grad = _values(rng, conv.forward(x).shape)
    fast = conv.backward(grad)
    fast_gw = conv.grads.pop("weight")
    monkeypatch.setattr(Conv2d, "_col2im", col2im_loop)
    conv.forward(x)
    _assert_bit_equal(fast, conv.backward(grad))
    assert np.array_equal(fast_gw, conv.grads["weight"])


# ---------------------------------------------------------------------------
# BatchNorm2d.forward
# ---------------------------------------------------------------------------


def _bn_pair(channels, rng):
    """Two BatchNorm layers with equal random parameters and running stats."""
    layers = []
    gamma, beta = rng.normal(size=channels), rng.normal(size=channels)
    mean, var = rng.normal(size=channels), rng.uniform(0.5, 2.0, size=channels)
    for _ in range(2):
        bn = BatchNorm2d(channels)
        bn.params["gamma"], bn.params["beta"] = gamma.copy(), beta.copy()
        bn.running_mean, bn.running_var = mean.copy(), var.copy()
        layers.append(bn)
    return layers


def _bn_input(rng, shape, layout):
    """``(N, C, H, W)`` values as the conv's NHWC view, or C-ordered and
    offset so the batch mean is far from zero and centring matters."""
    n, c, h, w = shape
    if layout == "conv":
        return _values(rng, (n, h, w, c)).transpose(0, 3, 1, 2)
    return _values(rng, shape) + 5.0


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("layout", ["conv", "nchw"])
@pytest.mark.parametrize("shape", [(64, 12, 16, 16), (64, 24, 8, 8), (3, 5, 7, 2), (1, 1, 1, 1)])
def test_batchnorm_forward_matches_two_pass(shape, layout, training):
    rng = np.random.default_rng(sum(shape))
    x = _bn_input(rng, shape, layout)
    fast, ref = _bn_pair(shape[1], rng)
    fast.train(training)
    ref.train(training)
    out = fast.forward(x)
    ref_out = batchnorm_forward_two_pass(ref, x)
    _assert_bit_equal(out, ref_out)
    _assert_bit_equal(fast._xhat, ref._xhat)
    _assert_bit_equal(fast._std, ref._std)
    _assert_bit_equal(fast.running_mean, ref.running_mean)
    _assert_bit_equal(fast.running_var, ref.running_var)
    grad = _values(rng, out.shape)
    _assert_bit_equal(fast.backward(grad), ref.backward(grad))


# ---------------------------------------------------------------------------
# Whole training
# ---------------------------------------------------------------------------


def _train_cnn(family):
    data = image_dataset(n_samples=160, channels=3, size=16, n_classes=4, seed=5)
    model = make_cnn(channels=3, width=8, n_classes=4, seed=105)
    result = train(model, data, family=family, sparsity=0.75, epochs=1, seed=5, ts_cap=None)
    return model, result


@pytest.mark.parametrize("family", [None, PatternFamily.TBS], ids=["dense", "TBS"])
def test_training_matches_with_loop_oracles(monkeypatch, family):
    """One CNN epoch is bit-identical with both loops installed."""
    model, result = _train_cnn(family)
    with monkeypatch.context() as mp:
        mp.setattr(Conv2d, "_col2im", col2im_loop)
        mp.setattr(BatchNorm2d, "forward", batchnorm_forward_two_pass)
        ref_model, ref_result = _train_cnn(family)

    assert [v.hex() for v in result.loss_history] == [v.hex() for v in ref_result.loss_history]
    assert result.test_accuracy.hex() == ref_result.test_accuracy.hex()
    modules, ref_modules = model.modules(), ref_model.modules()
    assert len(modules) == len(ref_modules)
    for mod, ref_mod in zip(modules, ref_modules):
        assert mod.params.keys() == ref_mod.params.keys()
        for name in mod.params:
            assert np.array_equal(mod.params[name], ref_mod.params[name]), (type(mod).__name__, name)
        if isinstance(mod, BatchNorm2d):
            assert np.array_equal(mod.running_mean, ref_mod.running_mean)
            assert np.array_equal(mod.running_var, ref_mod.running_var)
