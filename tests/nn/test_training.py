"""Tests for losses, optimizers, datasets, models and training loops."""

import numpy as np
import pytest

from repro.core.patterns import PatternFamily
from repro.nn import (
    SGD,
    TransformerClassifier,
    apply_masks,
    cluster_dataset,
    evaluate,
    image_dataset,
    make_cnn,
    make_mlp,
    one_shot_prune,
    prunable_layers,
    quantize_model,
    quantize_weights,
    sequence_dataset,
    softmax_cross_entropy,
    train,
)

RNG = np.random.default_rng(0)


def _quantization_error(weights, bits):
    """Relative L2 error of fake-quantizing ``weights`` to ``bits``."""
    return np.linalg.norm(weights - quantize_weights(weights, bits)) / np.linalg.norm(weights)


class TestLosses:
    def test_cross_entropy_uniform(self):
        logits = np.zeros((4, 8))
        loss, grad = softmax_cross_entropy(logits, np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(8))
        assert grad.shape == (4, 8)

    def test_cross_entropy_grad_numeric(self):
        logits = RNG.normal(size=(3, 5))
        labels = np.array([0, 2, 4])
        _, grad = softmax_cross_entropy(logits.copy(), labels)
        eps = 1e-6
        for i in range(3):
            for j in range(5):
                up = logits.copy()
                up[i, j] += eps
                down = logits.copy()
                down[i, j] -= eps
                num = (
                    softmax_cross_entropy(up, labels)[0] - softmax_cross_entropy(down, labels)[0]
                ) / (2 * eps)
                assert grad[i, j] == pytest.approx(num, abs=1e-5)

    def test_cross_entropy_shape_checks(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3, 4)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.zeros(3, dtype=int))


class TestOptimizers:
    def _quadratic_step(self, opt_cls, **kw):
        model = make_mlp(4, 8, 2, depth=1, seed=0)
        data = cluster_dataset(n_samples=128, n_features=4, n_classes=2, seed=0)
        opt = opt_cls(model, **kw)
        x, y = data[0][:32], data[1][:32]
        losses = []
        for _ in range(30):
            opt.zero_grad()
            logits = model(x)
            loss, grad = softmax_cross_entropy(logits, y)
            model.backward(grad)
            opt.step()
            losses.append(loss)
        return losses

    def test_sgd_decreases_loss(self):
        losses = self._quadratic_step(SGD, lr=0.05)
        assert losses[-1] < losses[0] * 0.5

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD(make_mlp(2, 2, 2, depth=1), lr=0.0)

    def test_weight_decay_shrinks_weights(self):
        model = make_mlp(4, 8, 2, depth=1, seed=1)
        w0 = np.abs(model.layers[0].params["weight"]).mean()
        opt = SGD(model, lr=0.1, momentum=0.0, weight_decay=0.5)
        for _ in range(10):
            model.zero_grad()
            # zero task gradient: only decay acts
            for mod, name in opt.handles:
                mod.grads[name] = np.zeros_like(mod.params[name])
            opt.step()
        assert np.abs(model.layers[0].params["weight"]).mean() < w0


class TestDatasets:
    def test_cluster_shapes_and_split(self):
        tr_x, tr_y, te_x, te_y = cluster_dataset(n_samples=100, n_features=8, seed=0)
        assert tr_x.shape[1] == 8
        assert len(tr_x) + len(te_x) == 100
        assert len(te_x) == 25

    def test_cluster_deterministic(self):
        a = cluster_dataset(seed=3)
        b = cluster_dataset(seed=3)
        np.testing.assert_array_equal(a[0], b[0])

    def test_image_shapes(self):
        tr_x, tr_y, te_x, te_y = image_dataset(n_samples=40, channels=3, size=8, seed=0)
        assert tr_x.shape[1:] == (3, 8, 8)

    def test_sequence_tokens_in_vocab(self):
        tr_x, tr_y, te_x, te_y = sequence_dataset(n_samples=40, vocab=16, seed=0)
        assert tr_x.max() < 16 and tr_x.min() >= 0

    def test_cluster_learnable(self):
        data = cluster_dataset(n_samples=256, n_features=16, n_classes=4, seed=1, noise=0.4)
        model = make_mlp(16, 32, 4, depth=2, seed=1)
        res = train(model, data, epochs=10, seed=1)
        assert res.test_accuracy > 0.8

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            cluster_dataset(n_samples=2, n_classes=4)


class TestModels:
    def test_mlp_depth(self):
        model = make_mlp(8, 16, 4, depth=3)
        linears = [m for m in model.modules() if type(m).__name__ == "Linear"]
        assert len(linears) == 4

    def test_cnn_forward(self):
        model = make_cnn(channels=3, width=8, n_classes=4)
        assert model(RNG.normal(size=(2, 3, 16, 16))).shape == (2, 4)

    def test_transformer_forward(self):
        model = TransformerClassifier(vocab=16, dim=16, heads=2, depth=1, n_classes=3)
        tokens = RNG.integers(0, 16, size=(2, 8))
        assert model(tokens).shape == (2, 3)

    def test_transformer_trains(self):
        data = sequence_dataset(n_samples=256, seq_len=12, vocab=16, n_classes=4, seed=2)
        model = TransformerClassifier(vocab=16, dim=24, heads=2, depth=1, n_classes=4, seed=2)
        res = train(model, data, epochs=14, seed=2)
        assert res.test_accuracy > 0.5

    def test_prunable_excludes_stem_and_head(self):
        model = make_mlp(8, 16, 4, depth=3)
        layers = prunable_layers(model)
        all_linear = [m for m in model.modules() if type(m).__name__ == "Linear"]
        assert layers == all_linear[1:-1]

    def test_prunable_empty_for_tiny_model(self):
        assert prunable_layers(make_mlp(4, 4, 2, depth=1)) == []


class TestSparseTraining:
    def test_apply_masks_hits_target(self):
        model = make_mlp(32, 64, 4, depth=3, seed=0)
        achieved = apply_masks(model, PatternFamily.TBS, 0.75)
        assert abs(achieved - 0.75) < 0.08

    def test_apply_masks_none_removes(self):
        model = make_mlp(32, 64, 4, depth=3, seed=0)
        apply_masks(model, PatternFamily.US, 0.5)
        assert apply_masks(model, None, 0.0) == 0.0
        assert all(layer.mask is None for layer in prunable_layers(model))

    def test_sparse_training_reaches_sparsity(self):
        data = cluster_dataset(n_samples=256, n_features=32, seed=4)
        model = make_mlp(32, 48, 4, depth=3, seed=4)
        res = train(model, data, family=PatternFamily.TBS, sparsity=0.75, epochs=5, seed=4)
        assert res.sparsity_history[-1] == pytest.approx(0.75, abs=0.08)
        assert len(res.loss_history) == 5

    def test_sparse_training_converges(self):
        data = cluster_dataset(n_samples=256, n_features=32, n_classes=4, seed=5, noise=0.5)
        model = make_mlp(32, 48, 4, depth=3, seed=5)
        res = train(model, data, family=PatternFamily.TBS, sparsity=0.5, epochs=10, seed=5)
        assert res.test_accuracy > 0.8
        assert res.loss_history[-1] < res.loss_history[0]

    def test_ts_cap_pins_ts_sparsity(self):
        model = make_mlp(32, 64, 4, depth=3, seed=6)
        capped = apply_masks(model, PatternFamily.TS, 0.75, ts_cap=0.5)
        assert capped == pytest.approx(0.5, abs=0.05)
        matched = apply_masks(model, PatternFamily.TS, 0.75, ts_cap=None)
        assert matched == pytest.approx(0.75, abs=0.05)

    def test_one_shot_prune(self):
        model = make_mlp(32, 48, 4, depth=3, seed=7)
        achieved = one_shot_prune(model, PatternFamily.US, 0.5)
        assert achieved == pytest.approx(0.5, abs=0.02)

    def test_one_shot_with_score_fn(self):
        model = make_mlp(32, 48, 4, depth=3, seed=8)
        calls = []

        def score_fn(layer):
            calls.append(layer)
            return np.abs(layer.weight_matrix())

        one_shot_prune(model, PatternFamily.TBS, 0.5, score_fn=score_fn)
        assert len(calls) == len(prunable_layers(model))

    def test_mask_refresh_schedule(self):
        data = cluster_dataset(n_samples=128, n_features=16, seed=9)
        model = make_mlp(16, 32, 4, depth=3, seed=9)
        refreshed = []
        train(
            model,
            data,
            family=PatternFamily.US,
            sparsity=0.5,
            epochs=4,
            seed=9,
            mask_refresh=lambda e: refreshed.append(e) or e < 2,
        )
        assert refreshed == [0, 1, 2, 3]


class TestQuantization:
    def test_roundtrip_small_error(self):
        w = RNG.normal(size=(16, 16))
        assert _quantization_error(w, bits=8) < 0.01

    def test_lower_bits_more_error(self):
        w = RNG.normal(size=(16, 16))
        assert _quantization_error(w, bits=4) > _quantization_error(w, bits=8)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            quantize_weights(np.ones((2, 2)), bits=1)

    def test_zero_weights_stable(self):
        w = np.zeros((4, 4))
        np.testing.assert_array_equal(quantize_weights(w), w)

    def test_quantize_model_touches_prunable(self):
        model = make_mlp(16, 32, 4, depth=3, seed=10)
        touched = quantize_model(model, bits=8)
        assert len(touched) == len(prunable_layers(model))

    def test_quantized_model_accuracy_preserved(self):
        """Fig. 15(b): 8-bit weight quantization costs <1% accuracy."""
        data = cluster_dataset(n_samples=256, n_features=16, n_classes=4, seed=11, noise=0.5)
        model = make_mlp(16, 32, 4, depth=2, seed=11)
        res = train(model, data, epochs=10, seed=11)
        quantize_model(model, bits=8)
        quant_acc = evaluate(model, data[2], data[3])
        assert res.test_accuracy - quant_acc < 0.05


class TestGlobalThreshold:
    """Sec. III-B1: one magnitude threshold over all prunable weights."""

    def test_overall_sparsity_matches_target(self):
        model = make_mlp(32, 64, 4, depth=4, seed=20)
        achieved = apply_masks(model, PatternFamily.US, 0.75, global_threshold=True)
        assert achieved == pytest.approx(0.75, abs=0.02)

    def test_layer_sparsities_differ(self):
        """Layers with smaller magnitudes end up sparser."""
        model = make_mlp(32, 64, 4, depth=4, seed=21)
        layers = prunable_layers(model)
        layers[0].params["weight"] *= 4.0  # make layer 0 loud
        apply_masks(model, PatternFamily.US, 0.75, global_threshold=True)
        s0 = 1 - layers[0].mask.mean()
        s1 = 1 - layers[1].mask.mean()
        assert s0 < s1

    def test_per_layer_mode_uniform(self):
        model = make_mlp(32, 64, 4, depth=4, seed=22)
        layers = prunable_layers(model)
        layers[0].params["weight"] *= 4.0
        apply_masks(model, PatternFamily.US, 0.75, global_threshold=False)
        for layer in layers:
            assert 1 - layer.mask.mean() == pytest.approx(0.75, abs=0.02)

    def test_train_accepts_global_threshold(self):
        data = cluster_dataset(n_samples=128, n_features=16, seed=23)
        model = make_mlp(16, 32, 4, depth=3, seed=23)
        res = train(
            model, data, family=PatternFamily.TBS, sparsity=0.5, epochs=3,
            seed=23, global_threshold=True,
        )
        assert res.sparsity_history[-1] == pytest.approx(0.5, abs=0.1)

    def test_extremes(self):
        from repro.nn.train import _global_layer_sparsities

        model = make_mlp(16, 32, 4, depth=3, seed=24)
        layers = prunable_layers(model)
        assert _global_layer_sparsities(layers, 0.0) == [0.0] * len(layers)
        assert _global_layer_sparsities(layers, 1.0) == [1.0] * len(layers)
