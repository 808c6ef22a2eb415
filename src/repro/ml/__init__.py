"""A from-scratch reverse-mode autodiff engine and neural-network toolkit.

The paper trains five neural models (BiLSTM-CRF miner, projection-learning
hypernym scorer, Wide&Deep concept classifier, text-augmented NER tagger,
knowledge-aware matcher) on TensorFlow-era infrastructure.  This subpackage
is the laptop-scale substitute: a numpy :class:`Tensor` with automatic
differentiation, standard layers (linear, embedding, LSTM/BiLSTM, Conv1d,
attention), losses and optimizers.  Everything the five models need trains
end-to-end through this engine.
"""

from .tensor import Tensor, concat, is_grad_enabled, no_grad, stack
from .module import Module, Parameter
from .inference import InferenceSession, stable_sigmoid
from .losses import bce_with_logits, cross_entropy, binary_nll
from .optim import SGD, Adam, Adagrad
from .layers import (
    Linear,
    Embedding,
    LSTM,
    BiLSTM,
    Conv1d,
    AdditiveSelfAttention,
    Dropout,
    MLP,
)

__all__ = [
    "Tensor", "concat", "stack", "no_grad", "is_grad_enabled",
    "Module", "Parameter",
    "InferenceSession", "stable_sigmoid",
    "bce_with_logits", "cross_entropy", "binary_nll",
    "SGD", "Adam", "Adagrad",
    "Linear", "Embedding", "LSTM", "BiLSTM", "Conv1d",
    "AdditiveSelfAttention", "Dropout", "MLP",
]
