"""Numpy neural-network substrate for the accuracy experiments."""

from .data import cluster_dataset, image_dataset, sequence_dataset
from .layers import (
    BatchNorm2d,
    Conv2d,
    GELU,
    GlobalAvgPool2d,
    LayerNorm,
    Linear,
    MaskableMixin,
    MaxPool2d,
    Module,
    MultiHeadSelfAttention,
    ReLU,
    Residual,
    Sequential,
    TransformerEncoderLayer,
)
from .losses import softmax_cross_entropy
from .models import Embedding, TransformerClassifier, make_cnn, make_mlp, prunable_layers
from .optim import SGD
from .quantize import quantize_model, quantize_weights
from .train import TrainResult, apply_masks, evaluate, one_shot_prune, train

__all__ = [
    "BatchNorm2d",
    "Conv2d",
    "Embedding",
    "GELU",
    "GlobalAvgPool2d",
    "LayerNorm",
    "Linear",
    "MaskableMixin",
    "MaxPool2d",
    "Module",
    "MultiHeadSelfAttention",
    "ReLU",
    "Residual",
    "SGD",
    "Sequential",
    "TrainResult",
    "TransformerClassifier",
    "TransformerEncoderLayer",
    "apply_masks",
    "cluster_dataset",
    "evaluate",
    "image_dataset",
    "make_cnn",
    "make_mlp",
    "one_shot_prune",
    "prunable_layers",
    "quantize_model",
    "quantize_weights",
    "sequence_dataset",
    "softmax_cross_entropy",
    "train",
]
