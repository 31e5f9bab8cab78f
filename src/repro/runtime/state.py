"""Bit-exact capture/restore of everything a training run mutates.

Checkpointing (and watchdog rollback) must reproduce a run *exactly*:
the same parameter bytes and BatchNorm running statistics, the same
optimizer slots, the same RNG stream position.  This module captures
all of that into plain ``Dict[str, np.ndarray]`` / JSON-able structures
so the checkpoint layer can persist them and the watchdog can hold them
in memory.

Everything is duck-typed against the :mod:`repro.nn` conventions
(``model.modules()``, ``module.params``, maskable layers with ``mask``,
optimizers with a ``_velocity`` slot) so this package never imports
:mod:`repro.nn` and stays dependency-free.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = [
    "TrainState",
    "capture_model",
    "restore_model",
    "capture_masks",
    "restore_masks",
    "capture_optimizer",
    "restore_optimizer",
    "capture_rng",
    "restore_rng",
    "capture_train_state",
    "restore_train_state",
]

#: Module state outside ``params`` that a forward pass reads (the
#: running statistics BatchNorm evaluates with).
_BUFFERS = ("running_mean", "running_var")

#: Optimizer slot attributes we know how to snapshot (SGD with momentum).
_OPT_ARRAY_SLOTS = ("_velocity",)
_OPT_SCALAR_SLOTS = ("lr", "momentum", "weight_decay")


@dataclass
class TrainState:
    """One restorable point of a training run.

    ``arrays`` holds every ndarray under flat string keys (the npz
    layout, see DESIGN.md); ``meta`` holds the JSON-able scalars.
    """

    epoch: int
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Model parameters and masks
# ---------------------------------------------------------------------------


def capture_model(model) -> Dict[str, np.ndarray]:
    """``param.{module_index}.{name}`` -> copied parameter array, and
    ``buffer.{module_index}.{name}`` -> copied running statistic."""
    out: Dict[str, np.ndarray] = {}
    for i, mod in enumerate(model.modules()):
        for name, value in mod.params.items():
            out[f"param.{i}.{name}"] = np.array(value, copy=True)
        for name in _BUFFERS:
            if hasattr(mod, name):
                out[f"buffer.{i}.{name}"] = np.array(getattr(mod, name), copy=True)
    return out


def restore_model(model, arrays: Dict[str, np.ndarray]) -> None:
    modules = model.modules()
    for key, value in arrays.items():
        kind = key.split(".", 1)[0]
        if kind not in ("param", "buffer"):
            continue
        _, idx, name = key.split(".", 2)
        mod = modules[int(idx)]
        held = mod.params if kind == "param" else vars(mod)
        if name not in held:
            raise KeyError(f"checkpoint {kind} {key!r} unknown to the model")
        if held[name].shape != value.shape:
            raise ValueError(
                f"checkpoint {kind} {key!r} shape {value.shape} != "
                f"model shape {held[name].shape}"
            )
        held[name] = np.array(value, copy=True)


def capture_masks(layers) -> Dict[str, np.ndarray]:
    """``mask.{layer_index}`` -> boolean mask for layers that carry one."""
    out: Dict[str, np.ndarray] = {}
    for j, layer in enumerate(layers):
        mask = getattr(layer, "mask", None)
        if mask is not None:
            out[f"mask.{j}"] = np.array(mask, dtype=bool, copy=True)
    return out


def restore_masks(layers, arrays: Dict[str, np.ndarray]) -> None:
    saved = {
        int(key.split(".", 1)[1]): value
        for key, value in arrays.items()
        if key.startswith("mask.")
    }
    for j, layer in enumerate(layers):
        layer.set_mask(saved.get(j))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def capture_optimizer(opt) -> Dict[str, Any]:
    """Snapshot the slot arrays and scalar hyper-state of an optimizer."""
    state: Dict[str, Any] = {"arrays": {}, "scalars": {}}
    for slot in _OPT_ARRAY_SLOTS:
        slot_dict = getattr(opt, slot, None)
        if isinstance(slot_dict, dict):
            for idx, arr in slot_dict.items():
                state["arrays"][f"opt{slot}.{idx}"] = np.array(arr, copy=True)
            state["scalars"][f"has{slot}"] = True
    for slot in _OPT_SCALAR_SLOTS:
        if hasattr(opt, slot):
            state["scalars"][slot] = getattr(opt, slot)
    return state


def restore_optimizer(opt, state: Dict[str, Any]) -> None:
    scalars = state.get("scalars", {})
    for slot in _OPT_ARRAY_SLOTS:
        if not scalars.get(f"has{slot}") or not hasattr(opt, slot):
            continue
        slot_dict = {}
        prefix = f"opt{slot}."
        for key, arr in state.get("arrays", {}).items():
            if key.startswith(prefix):
                slot_dict[int(key[len(prefix):])] = np.array(arr, copy=True)
        setattr(opt, slot, slot_dict)
    for slot in _OPT_SCALAR_SLOTS:
        if slot in scalars and hasattr(opt, slot):
            setattr(opt, slot, scalars[slot])


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------


def capture_rng(rng: np.random.Generator) -> Dict[str, Any]:
    """JSON-able bit-generator state (PCG64 ints survive JSON exactly)."""
    return copy.deepcopy(rng.bit_generator.state)


def restore_rng(rng: np.random.Generator, state: Dict[str, Any]) -> None:
    expected = rng.bit_generator.state.get("bit_generator")
    got = state.get("bit_generator")
    if expected != got:
        raise ValueError(f"RNG kind mismatch: checkpoint has {got!r}, run uses {expected!r}")
    rng.bit_generator.state = copy.deepcopy(state)


# ---------------------------------------------------------------------------
# Whole-run state
# ---------------------------------------------------------------------------


def capture_train_state(
    epoch: int,
    model,
    layers,
    opt,
    rng: np.random.Generator,
    *,
    loss_history: Optional[List[float]] = None,
    sparsity_history: Optional[List[float]] = None,
    extra_meta: Optional[Dict[str, Any]] = None,
) -> TrainState:
    """Capture one complete, restartable training-run state."""
    arrays = capture_model(model)
    arrays.update(capture_masks(layers))
    opt_state = capture_optimizer(opt)
    arrays.update(opt_state["arrays"])
    meta: Dict[str, Any] = {
        "epoch": int(epoch),
        "rng_state": capture_rng(rng),
        "optimizer": opt_state["scalars"],
        "loss_history": list(loss_history or []),
        "sparsity_history": list(sparsity_history or []),
    }
    if extra_meta:
        meta.update(extra_meta)
    return TrainState(epoch=int(epoch), arrays=arrays, meta=meta)


def restore_train_state(
    state: TrainState,
    model,
    layers,
    opt,
    rng: np.random.Generator,
) -> None:
    """Put a run back exactly where :func:`capture_train_state` saw it."""
    restore_model(model, state.arrays)
    restore_masks(layers, state.arrays)
    restore_optimizer(opt, {"arrays": state.arrays, "scalars": state.meta.get("optimizer", {})})
    restore_rng(rng, state.meta["rng_state"])
