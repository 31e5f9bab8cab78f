"""Dense and sparse training loops (Sec. III-B) plus one-shot pruning.

The sparse-training flow follows the paper:

* train from scratch (not fine-tune);
* every epoch, regenerate the mask *from the current dense weights*: a
  global magnitude threshold at the target sparsity yields the
  unstructured reference, then the pattern family's generator projects
  it (Algorithm 1 for TBS);
* forward uses the masked weights, the gradient reaches the dense
  weights (straight-through), so pruned connections can revive.

``train`` records the loss history used by Fig. 18 and returns the
final test accuracy used by Tables I/II.

Resilience (see :mod:`repro.runtime`): ``train`` can checkpoint every
epoch into a :class:`~repro.runtime.checkpoint.CheckpointStore` and
resume bit-exactly (same RNG stream, parameters, optimizer slots and
masks), and a :class:`~repro.runtime.watchdog.DivergenceWatchdog`
rolls NaN/Inf/loss-spike epochs back to the last good state with a
learning-rate backoff, degrading gracefully once retries are exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from ..core.masks import make_mask, unstructured_mask
from ..core.patterns import PatternFamily, PatternSpec
from ..core.sparsify import tbs_sparsify
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from ..obs.state import enabled as _obs_enabled
from ..perf import stage, timed
from ..runtime.checkpoint import CheckpointStore
from ..runtime.checks import check_mask
from ..runtime.state import capture_train_state, restore_train_state
from ..runtime.watchdog import DivergenceWatchdog, WatchdogConfig
from .layers import Module
from .losses import softmax_cross_entropy
from .models import prunable_layers
from .optim import SGD, _Optimizer

__all__ = ["TrainResult", "apply_masks", "train", "one_shot_prune", "evaluate"]


@dataclass
class TrainResult:
    """Outcome of one training run.

    ``completed_epochs`` counts epochs whose updates survived (rollbacks
    discard theirs); ``resumed_from`` is the checkpoint epoch a resumed
    run restarted after; ``degraded`` flags a run the watchdog stopped
    early after exhausting its retries; ``watchdog_events`` records every
    divergence (epoch, kind, action, lr scale).
    """

    loss_history: List[float] = field(default_factory=list)
    sparsity_history: List[float] = field(default_factory=list)
    test_accuracy: float = 0.0
    family: Optional[PatternFamily] = None
    sparsity: float = 0.0
    completed_epochs: int = 0
    resumed_from: Optional[int] = None
    degraded: bool = False
    watchdog_events: List[Dict[str, Any]] = field(default_factory=list)


def _project(
    scores: np.ndarray,
    family: PatternFamily,
    sparsity: float,
    m: int,
    ts_cap: Optional[float],
):
    """Project magnitude scores onto one family: (mask, spec, tbs_meta).

    ``ts_cap`` pins the TS family to the STC hardware ratio (4:8 = 50%,
    the paper's Table I footnote); pass ``None`` for an iso-sparsity TS
    comparison (fixed N = (1-s)*M).
    """
    sparsity = min(1.0, max(0.0, sparsity))
    if family is PatternFamily.TBS:
        result = tbs_sparsify(scores, m=m, sparsity=sparsity)
        return result.mask, PatternSpec(family, m=m, sparsity=sparsity), result
    if family is PatternFamily.TS and ts_cap is not None:
        spec = PatternSpec(family, m=m, sparsity=min(sparsity, ts_cap))
        return make_mask(scores, spec), spec, None
    spec = PatternSpec(family, m=m, sparsity=sparsity)
    if family is PatternFamily.US:
        return unstructured_mask(scores, sparsity), spec, None
    return make_mask(scores, spec), spec, None


def _global_layer_sparsities(layers, sparsity: float) -> List[float]:
    """Per-layer sparsity targets from one *global* magnitude threshold.

    Sec. III-B1: "we first obtain the threshold on the entire weight
    according to the target sparsity" -- the threshold is computed over
    the concatenation of every prunable layer's weights, so layers with
    smaller magnitudes end up sparser than the global target and
    important layers keep more.
    """
    magnitudes = np.concatenate([np.abs(l.weight_matrix()).ravel() for l in layers])
    if magnitudes.size == 0 or sparsity <= 0.0:
        return [0.0] * len(layers)
    if sparsity >= 1.0:
        return [1.0] * len(layers)
    threshold = float(np.quantile(magnitudes, sparsity))
    return [
        float((np.abs(l.weight_matrix()) <= threshold).mean()) for l in layers
    ]


@timed("nn.apply_masks")
def apply_masks(
    model: Module,
    family: Optional[PatternFamily],
    sparsity: float,
    m: int = 8,
    ts_cap: Optional[float] = 0.5,
    global_threshold: bool = False,
) -> float:
    """Regenerate and install masks on every prunable layer.

    Returns the achieved sparsity over the prunable weights.  Passing
    ``family=None`` removes all masks (dense training).

    ``global_threshold=True`` follows the paper's Sec. III-B1 flow: one
    magnitude threshold over *all* prunable weights sets each layer's
    individual sparsity degree; the default prunes every layer to the
    same target independently.  The generated masks are checked at the
    ambient :mod:`repro.runtime.checks` level.
    """
    layers = prunable_layers(model)
    if family is None:
        for layer in layers:
            layer.set_mask(None)
        return 0.0
    if global_threshold:
        per_layer = _global_layer_sparsities(layers, sparsity)
    else:
        per_layer = [sparsity] * len(layers)
    kept = 0
    total = 0
    for i, (layer, layer_sparsity) in enumerate(zip(layers, per_layer)):
        scores = np.abs(layer.weight_matrix())
        mask, spec, tbs = _project(scores, family, layer_sparsity, m, ts_cap)
        check_mask(mask, spec, tbs=tbs, context=f"apply_masks layer {i}")
        layer.set_mask(mask)
        kept += int(mask.sum())
        total += mask.size
    return 1.0 - kept / total if total else 0.0


@timed("nn.evaluate")
def evaluate(model: Module, x: np.ndarray, y: np.ndarray, batch: int = 128) -> float:
    """Top-1 accuracy in eval mode."""
    model.eval()
    correct = 0
    for i in range(0, len(x), batch):
        logits = model(x[i : i + batch])
        correct += int((logits.argmax(axis=1) == y[i : i + batch]).sum())
    model.train()
    return correct / max(1, len(x))


def _watchdog_for(watchdog: Union[None, bool, WatchdogConfig]) -> DivergenceWatchdog:
    if isinstance(watchdog, WatchdogConfig):
        return DivergenceWatchdog(watchdog)
    if watchdog is False:
        return DivergenceWatchdog(WatchdogConfig(enabled=False))
    return DivergenceWatchdog(WatchdogConfig())


@timed("nn.train")
def train(
    model: Module,
    data,
    family: Optional[PatternFamily] = None,
    sparsity: float = 0.0,
    epochs: int = 10,
    batch: int = 64,
    m: int = 8,
    optimizer: Optional[_Optimizer] = None,
    seed: int = 0,
    mask_refresh: Callable[[int], bool] = lambda epoch: True,
    ts_cap: Optional[float] = 0.5,
    global_threshold: bool = False,
    loss_fn: Optional[Callable] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    watchdog: Union[None, bool, WatchdogConfig] = None,
) -> TrainResult:
    """Train ``model`` on ``data = (train_x, train_y, test_x, test_y)``.

    ``family=None`` trains densely; otherwise the mask is regenerated at
    the start of every epoch for which ``mask_refresh(epoch)`` is true.
    Batches are shuffled by ``default_rng(seed)``; checkpoints capture
    and restore its exact stream position.

    Resilience knobs:

    * ``loss_fn`` -- the training criterion, ``(logits, labels) ->
      (loss, dlogits)``; defaults to softmax cross-entropy.
    * ``checkpoint_dir`` -- if set, every epoch is persisted atomically;
      with ``resume=True`` the run restarts after the newest readable
      checkpoint and produces a bit-identical result to an uninterrupted
      run.
    * ``watchdog`` -- ``None`` for the default NaN/Inf/spike policy, a
      :class:`~repro.runtime.watchdog.WatchdogConfig` to tune it, or
      ``False`` to disable.  Rollbacks restore the last good epoch and
      shrink the learning rate; exhausted retries end the run early with
      ``result.degraded = True`` at the last good state.
    """
    train_x, train_y, test_x, test_y = data
    opt = optimizer or SGD(model, lr=0.05, momentum=0.9, weight_decay=5e-4)
    rng = np.random.default_rng(seed)
    criterion = loss_fn or softmax_cross_entropy
    wd = _watchdog_for(watchdog)
    result = TrainResult(family=family, sparsity=sparsity)
    layers = prunable_layers(model)
    store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
    base_lr = opt.lr

    start_epoch = 0
    if resume and store is not None:
        snap = store.latest()
        if snap is not None:
            restore_train_state(snap, model, layers, opt, rng)
            wd.load_state_dict(snap.meta.get("watchdog", {}))
            base_lr = float(snap.meta.get("base_lr", base_lr))
            result.loss_history = list(snap.meta["loss_history"])
            result.sparsity_history = list(snap.meta["sparsity_history"])
            result.watchdog_events = [e.as_dict() for e in wd.events]
            result.resumed_from = snap.epoch
            start_epoch = snap.epoch + 1

    # Rollback target: with the watchdog or a store active we always hold
    # the last good state in memory (initially the untrained state).
    need_state = wd.config.enabled or store is not None

    def _capture(epoch: int):
        return capture_train_state(
            epoch, model, layers, opt, rng,
            loss_history=result.loss_history,
            sparsity_history=result.sparsity_history,
            extra_meta={"base_lr": base_lr, "seed": seed, "watchdog": wd.state_dict()},
        )

    last_good = _capture(start_epoch - 1) if need_state else None

    epoch = start_epoch
    while epoch < epochs:
        if wd.lr_scale != 1.0:
            opt.lr = base_lr * wd.lr_scale
        if family is not None and mask_refresh(epoch):
            achieved = apply_masks(
                model, family, sparsity, m=m, ts_cap=ts_cap,
                global_threshold=global_threshold,
            )
        else:
            achieved = result.sparsity_history[-1] if result.sparsity_history else 0.0
        order = rng.permutation(len(train_x))
        epoch_loss = 0.0
        steps = 0
        diverged: Optional[str] = None
        with stage("nn.train.epoch"):
            for i in range(0, len(order), batch):
                idx = order[i : i + batch]
                opt.zero_grad()
                logits = model(train_x[idx])
                loss, dlogits = criterion(logits, train_y[idx])
                if wd.config.enabled and not np.isfinite(loss):
                    diverged = "nan"
                    break
                model.backward_params(dlogits)
                opt.step()
                epoch_loss += loss
                steps += 1
        mean_loss = epoch_loss / max(1, steps)
        if diverged is None:
            diverged = wd.classify(mean_loss)

        if diverged is not None:
            action = wd.diverged(epoch, mean_loss, diverged)
            if _obs_enabled():
                obs_metrics.counter_add("nn.watchdog_rollbacks")
                obs_tracer.instant(
                    "nn.watchdog.rollback", epoch=epoch, reason=diverged, action=action
                )
            result.watchdog_events = [e.as_dict() for e in wd.events]
            restore_train_state(last_good, model, layers, opt, rng)
            result.loss_history = list(last_good.meta["loss_history"])
            result.sparsity_history = list(last_good.meta["sparsity_history"])
            if action == "degrade":
                result.degraded = True
                break
            continue  # retry the same epoch from the restored state

        result.loss_history.append(mean_loss)
        result.sparsity_history.append(achieved)
        wd.record_good(mean_loss)
        if need_state:
            last_good = _capture(epoch)
            if store is not None:
                store.save(last_good)
        epoch += 1

    result.completed_epochs = len(result.loss_history)
    result.watchdog_events = [e.as_dict() for e in wd.events]
    result.test_accuracy = evaluate(model, test_x, test_y)
    return result


@timed("nn.train.one_shot_prune")
def one_shot_prune(
    model: Module,
    family: PatternFamily,
    sparsity: float,
    score_fn: Optional[Callable] = None,
    m: int = 8,
    ts_cap: Optional[float] = 0.5,
) -> float:
    """One-shot pruning of a trained model (the Table II protocol).

    ``score_fn(layer) -> scores`` supplies the criterion (Wanda,
    SparseGPT saliency, ...); default is weight magnitude.  Returns the
    achieved sparsity.  The generated masks are checked at the ambient
    :mod:`repro.runtime.checks` level.
    """
    layers = prunable_layers(model)
    kept = 0
    total = 0
    for i, layer in enumerate(layers):
        scores = np.abs(layer.weight_matrix()) if score_fn is None else np.abs(score_fn(layer))
        mask, spec, tbs = _project(scores, family, sparsity, m, ts_cap)
        check_mask(mask, spec, tbs=tbs, context=f"one_shot_prune layer {i}")
        layer.set_mask(mask)
        kept += int(mask.sum())
        total += mask.size
    return 1.0 - kept / total if total else 0.0
