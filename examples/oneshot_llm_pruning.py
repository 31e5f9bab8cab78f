"""One-shot pruning with Wanda and SparseGPT criteria (Table II workflow).

Trains a transformer-encoder proxy densely (the OPT/Llama stand-in),
captures calibration activations, then one-shot prunes at 50% with each
criterion x sparsity pattern and compares the accuracy retained --
including the SparseGPT OBS weight update.

Run:  python examples/oneshot_llm_pruning.py
"""

import numpy as np

from repro.analysis import capture_layer_inputs, render_table
from repro.core.criteria import sparsegpt_prune, sparsegpt_scores, wanda_scores
from repro.core.patterns import PatternFamily
from repro.core.sparsify import tbs_sparsify
from repro.nn import TransformerClassifier, evaluate, one_shot_prune, sequence_dataset, train
from repro.nn.models import prunable_layers
from repro.runtime.state import capture_masks, capture_model, restore_masks, restore_model

SPARSITY = 0.5
FAMILIES = [
    PatternFamily.US,
    PatternFamily.TS,
    PatternFamily.RS_V,
    PatternFamily.RS_H,
    PatternFamily.TBS,
]


def main() -> None:
    data = sequence_dataset(n_samples=384, seq_len=16, vocab=32, n_classes=4, seed=0)
    model = TransformerClassifier(vocab=32, dim=32, heads=4, depth=2, n_classes=4, seed=100)
    train(model, data, epochs=12, seed=0)
    dense_acc = evaluate(model, data[2], data[3])
    print(f"dense accuracy: {dense_acc:.3f}\n")

    layers = prunable_layers(model)
    snapshot = {**capture_model(model), **capture_masks(layers)}
    activations = capture_layer_inputs(model, data[0][:64])

    rows = []
    for criterion in ("magnitude", "wanda", "sparsegpt"):

        def score_fn(layer, _criterion=criterion):
            w2d = layer.weight_matrix()
            if _criterion == "magnitude":
                return np.abs(w2d)
            acts = activations[id(layer)]
            if _criterion == "wanda":
                return wanda_scores(w2d, acts)
            return sparsegpt_scores(w2d, acts)

        for family in FAMILIES:
            restore_model(model, snapshot)
            restore_masks(layers, snapshot)
            one_shot_prune(model, family, SPARSITY, score_fn=score_fn, ts_cap=None)
            acc = evaluate(model, data[2], data[3])
            rows.append([criterion, family.name, f"{acc:.3f}", f"{dense_acc - acc:+.3f}"])

    print(render_table(
        ["criterion", "pattern", "accuracy", "drop vs dense"],
        rows,
        title=f"One-shot pruning at {SPARSITY:.0%} (no retraining)",
    ))

    # Bonus: the full SparseGPT OBS update on one layer, showing the
    # reconstruction-error benefit over plain masking.
    restore_model(model, snapshot)
    restore_masks(layers, snapshot)
    layer = layers[0]
    weights = layer.weight_matrix()
    acts = activations[id(layer)]
    pruned, mask = sparsegpt_prune(
        weights, acts, lambda s: tbs_sparsify(s, m=8, sparsity=SPARSITY).mask
    )
    naive = weights * mask
    ref = acts @ weights.T
    err_obs = np.linalg.norm(ref - acts @ pruned.T)
    err_naive = np.linalg.norm(ref - acts @ naive.T)
    print(f"\nSparseGPT OBS update on layer 0: reconstruction error "
          f"{err_obs:.3f} vs naive masking {err_naive:.3f} "
          f"({err_naive / max(err_obs, 1e-12):.2f}x better)")


if __name__ == "__main__":
    main()
