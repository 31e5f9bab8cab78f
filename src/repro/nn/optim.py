"""Optimizers operating on Module parameter handles."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .layers import Module

__all__ = ["SGD"]


class _Optimizer:
    def __init__(self, model: Module, lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.model = model
        self.lr = lr
        self.handles: List[Tuple[Module, str]] = model.parameters()

    def step(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def zero_grad(self) -> None:
        self.model.zero_grad()


class SGD(_Optimizer):
    """SGD with momentum and decoupled weight decay."""

    def __init__(self, model: Module, lr: float = 0.1, momentum: float = 0.9, weight_decay: float = 0.0):
        super().__init__(model, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for i, (mod, name) in enumerate(self.handles):
            grad = mod.grads.get(name)
            if grad is None:
                continue
            param = mod.params[name]
            if self.weight_decay and name == "weight":
                grad = grad + self.weight_decay * param
            vel = self._velocity.get(i)
            vel = grad if vel is None else self.momentum * vel + grad
            self._velocity[i] = vel
            mod.params[name] = param - self.lr * vel
