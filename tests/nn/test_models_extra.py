"""Additional model-level tests: embedding gradients, end-to-end
backward consistency, CNN stage shapes."""

import numpy as np
import pytest

from repro.nn.layers import Sequential
from repro.nn.losses import softmax_cross_entropy
from repro.nn.models import Embedding, TransformerClassifier, make_cnn, make_mlp

RNG = np.random.default_rng(0)


class TestEmbedding:
    def test_forward_shape(self):
        emb = Embedding(vocab=10, dim=6, max_len=8, seed=0)
        tokens = RNG.integers(0, 10, size=(3, 5))
        assert emb(tokens).shape == (3, 5, 6)

    def test_positional_added(self):
        emb = Embedding(vocab=4, dim=4, max_len=8, seed=1)
        tokens = np.zeros((1, 3), dtype=int)
        out = emb(tokens)
        # Same token at different positions differs by the pos table.
        assert not np.allclose(out[0, 0], out[0, 1])

    def test_table_gradient_accumulates_repeats(self):
        emb = Embedding(vocab=4, dim=2, max_len=4, seed=2)
        tokens = np.array([[1, 1, 2]])
        out = emb(tokens)
        emb.zero_grad()
        emb.backward(np.ones_like(out))
        # Token 1 appears twice -> double the gradient of token 2.
        np.testing.assert_allclose(emb.grads["table"][1], 2 * emb.grads["table"][2])
        assert np.all(emb.grads["table"][0] == 0)

    def test_pos_gradient_shape(self):
        emb = Embedding(vocab=4, dim=2, max_len=6, seed=3)
        out = emb(np.zeros((2, 3), dtype=int))
        emb.zero_grad()
        emb.backward(np.ones_like(out))
        assert np.all(emb.grads["pos"][3:] == 0)  # untouched positions


class TestEndToEndBackward:
    def test_mlp_loss_gradient_numeric(self):
        """Full-model gradient check through the loss."""
        model = make_mlp(6, 8, 3, depth=2, seed=4)
        x = RNG.normal(size=(4, 6))
        y = np.array([0, 1, 2, 1])

        model.zero_grad()
        logits = model(x)
        _, dlogits = softmax_cross_entropy(logits, y)
        model.backward(dlogits)

        layer = model.layers[0]
        analytic = layer.grads["weight"]
        eps = 1e-6
        for idx in [(0, 0), (3, 2), (7, 5)]:
            orig = layer.params["weight"][idx]
            layer.params["weight"][idx] = orig + eps
            up, _ = softmax_cross_entropy(model(x), y)
            layer.params["weight"][idx] = orig - eps
            down, _ = softmax_cross_entropy(model(x), y)
            layer.params["weight"][idx] = orig
            assert analytic[idx] == pytest.approx((up - down) / (2 * eps), abs=1e-5)

    def test_transformer_loss_gradient_numeric(self):
        model = TransformerClassifier(vocab=8, dim=8, heads=2, depth=1, n_classes=3, seed=5)
        tokens = RNG.integers(0, 8, size=(2, 4))
        y = np.array([0, 2])

        model.zero_grad()
        _, dlogits = softmax_cross_entropy(model(tokens), y)
        model.backward(dlogits)

        layer = model.head
        analytic = layer.grads["weight"]
        eps = 1e-6
        for idx in [(0, 0), (2, 5)]:
            orig = layer.params["weight"][idx]
            layer.params["weight"][idx] = orig + eps
            up, _ = softmax_cross_entropy(model(tokens), y)
            layer.params["weight"][idx] = orig - eps
            down, _ = softmax_cross_entropy(model(tokens), y)
            layer.params["weight"][idx] = orig
            assert analytic[idx] == pytest.approx((up - down) / (2 * eps), abs=1e-5)


class TestCNNStructure:
    def test_eval_mode_deterministic(self):
        model = make_cnn(channels=3, width=8, n_classes=4, seed=6)
        x = RNG.normal(size=(2, 3, 16, 16))
        model(x)  # populate BN running stats
        model.eval()
        np.testing.assert_array_equal(model(x), model(x))

    def test_stage_channel_doubling(self):
        from repro.nn.layers import Conv2d

        model = make_cnn(channels=3, width=8, n_classes=4, seed=7)
        convs = [m for m in model.modules() if isinstance(m, Conv2d)]
        assert convs[0].out_channels == 8
        assert any(c.out_channels == 16 for c in convs)

    def test_module_registry_complete(self):
        model = make_cnn(channels=3, width=8, n_classes=4, seed=8)
        # Every parameterised module reachable via modules().
        handles = model.parameters()
        assert len({id(m) for m, _ in handles}) >= 8


class TestSequentialComposition:
    def test_nested_sequential_modules(self):
        inner = Sequential(make_mlp(4, 4, 2, depth=1))
        assert len(inner.modules()) >= 3

    def test_empty_sequential(self):
        seq = Sequential()
        x = RNG.normal(size=(2, 3))
        np.testing.assert_array_equal(seq(x), x)
        np.testing.assert_array_equal(seq.backward(x), x)
