"""Affine layers: Linear and a small MLP convenience stack."""

from __future__ import annotations

import numpy as np

from ..init import xavier_uniform
from ..module import Module, Parameter
from ..tensor import Tensor, relu, sigmoid


def linear(x, weight, bias=None):
    """Affine map ``x @ weight + bias`` over the last axis, of tensors (the
    layers) or arrays (inference sessions)."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def mlp(x, layers, activation):
    """Stacked :func:`linear` maps from ``(weight, bias)`` pairs, with
    ``activation`` between them (not after the last: it gives logits)."""
    for i, (weight, bias) in enumerate(layers):
        x = linear(x, weight, bias)
        if i < len(layers) - 1:
            x = activation(x)
    return x


class Linear(Module):
    """Affine map ``y = x @ W + b`` over the last axis.

    Args:
        in_dim: Input feature dimension.
        out_dim: Output feature dimension.
        rng: Generator for weight initialisation.
        bias: Whether to add a bias term.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Parameter(xavier_uniform(rng, in_dim, out_dim))
        self.bias = Parameter(np.zeros(out_dim)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


#: MLP activations by name: the tape op and its plain forward.
ACTIVATIONS = {
    "tanh": (Tensor.tanh, np.tanh),
    "relu": (Tensor.relu, relu),
    "sigmoid": (Tensor.sigmoid, sigmoid),
}


class MLP(Module):
    """A stack of Linear layers with a fixed nonlinearity between them.

    The final layer has no activation (it produces logits/scores).

    Args:
        dims: Layer widths including input and output, e.g. ``[64, 32, 1]``.
        rng: Generator for weight initialisation.
        activation: One of ``tanh``, ``relu``, ``sigmoid``.
    """

    def __init__(self, dims: list[int], rng: np.random.Generator,
                 activation: str = "tanh"):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least an input and an output width")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.layers = [Linear(a, b, rng) for a, b in zip(dims[:-1], dims[1:])]
        self._activation = ACTIVATIONS[activation][0]

    def forward(self, x: Tensor) -> Tensor:
        layers = [(layer.weight, layer.bias) for layer in self.layers]
        return mlp(x, layers, self._activation)
