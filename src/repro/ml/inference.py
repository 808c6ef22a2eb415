"""Tape-free inference over plain numpy arrays.

Serving never backpropagates, yet a :class:`~repro.ml.tensor.Tensor`
forward pass allocates a graph node, a backward closure and a parent
tuple per op; on the serving hot paths that bookkeeping dominates the
arithmetic.  So served models run their forwards on plain arrays.

**One forward per layer.**  Each layer's arithmetic is one plain-array
function kept next to its layer or op (``linear``/``mlp``, ``conv1d``,
``lstm``, ``self_attention``, and the ``relu``/``sigmoid``/``softmax``
of :mod:`repro.ml.tensor`).  The taped layers and ops compute their
forward data through it and :class:`InferenceSession` calls it on
arrays, so a tape-free score is bit-identical to the taped one.  This
module keeps only what no layer owns.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .layers.attention import self_attention
from .layers.conv import conv1d
from .layers.linear import ACTIVATIONS, linear, mlp
from .layers.recurrent import bidirectional, lstm
from .module import Module
from .tensor import softmax

__all__ = [
    "InferenceSession",
    "additive_attention_pool",
    "embedding_gather",
    "stable_sigmoid",
]


def stable_sigmoid(logits) -> np.ndarray:
    """Overflow-free logistic function of a scalar (as a 0-d array) or an
    array: ``1/(1+z)`` or ``z/(1+z)`` with ``z = exp(-|x|)``, where the
    naive form overflows ``exp`` for very negative ``x``."""
    x = np.asarray(logits, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def embedding_gather(table: np.ndarray, ids) -> np.ndarray:
    """Rows of a 2-D embedding table; mirrors ``Tensor.gather_rows``."""
    if table.ndim != 2:
        raise ShapeError(f"embedding_gather expects a 2-D table, got {table.shape}")
    return table[np.asarray(ids, dtype=np.intp)]


def additive_attention_pool(left: np.ndarray, right: np.ndarray,
                            score_weight: np.ndarray,
                            left_states: np.ndarray,
                            right_states: np.ndarray,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Two-way additive attention pooling (the paper's Eqs. 11-14).

    ``left`` ``(m, d)`` and ``right`` ``(t, d)`` are the pre-projected
    sides (``W1 @ concept``, computed once per query, and ``W2 @ title``)
    and ``score_weight`` is ``v`` as a ``(d, 1)`` matrix.  Returns the
    attention-pooled ``(d,)`` vectors of both sides' raw states.
    """
    energies = np.tanh(left[:, None, :] + right[None, :, :]) @ score_weight
    attention = energies.reshape(left.shape[0], right.shape[0])
    left_weights = softmax(attention.sum(axis=1), axis=0)
    right_weights = softmax(attention.sum(axis=0), axis=0)
    return left_weights @ left_states, right_weights @ right_states


class InferenceSession:
    """One module's weights, extracted once, bound to the layer functions.

    Keeps zero-copy views of every parameter array, so in-place updates
    (optimizers, ``load_state_dict``) stay visible; only replacing a
    :class:`~repro.ml.module.Parameter` needs a new session.  Helpers
    take the module's dotted attribute names
    (``session.mlp(x, "head", "relu")``), so a tape-free forward reads
    like its taped one.
    """

    def __init__(self, module: Module):
        self._params: dict[str, np.ndarray] = {
            name: parameter.data for name, parameter in module.named_parameters()
        }
        self._mlp_layers: dict[str, list[tuple[np.ndarray, np.ndarray | None]]] = {}

    def weight(self, name: str) -> np.ndarray:
        """The array of a dotted parameter name (``KeyError`` if none)."""
        return self._params[name]

    def embed(self, name: str, ids) -> np.ndarray:
        """Embedding-table rows, e.g. ``session.embed("embedding.weight", ids)``."""
        return embedding_gather(self._params[name], ids)

    def linear(self, x: np.ndarray, name: str) -> np.ndarray:
        """Apply the :class:`~repro.ml.Linear` submodule at ``name``."""
        return linear(x, self._params[f"{name}.weight"],
                      self._params.get(f"{name}.bias"))

    def conv1d(self, x: np.ndarray, name: str) -> np.ndarray:
        """Apply the :class:`~repro.ml.Conv1d` submodule at ``name`` to a
        ``(..., time, in_dim)`` array."""
        return conv1d(x, self._params[f"{name}.weight"],
                      self._params[f"{name}.bias"])[0]

    def bilstm(self, x: np.ndarray, name: str) -> np.ndarray:
        """Apply the :class:`~repro.ml.BiLSTM` submodule at ``name``."""

        def direction(module: str):
            weights = [self._params[f"{name}.{module}.{part}"]
                       for part in ("w_input", "w_hidden", "bias")]
            return lambda data: lstm(data, *weights)[0]

        return bidirectional(x, direction("forward_lstm"),
                             direction("backward_lstm"), np.concatenate)

    def self_attention(self, x: np.ndarray, name: str) -> np.ndarray:
        """Apply the :class:`~repro.ml.AdditiveSelfAttention` at ``name``."""
        return self_attention(x, self._params[f"{name}.query.weight"],
                              self._params[f"{name}.key.weight"],
                              self._params[f"{name}.score.weight"])[0]

    def mlp(self, x: np.ndarray, name: str, activation: str = "tanh") -> np.ndarray:
        """Apply the :class:`~repro.ml.MLP` submodule at ``name``."""
        layers = self._mlp_layers.get(name)
        if layers is None:
            layers = []
            index = 0
            while f"{name}.layers.{index}.weight" in self._params:
                layers.append((self._params[f"{name}.layers.{index}.weight"],
                               self._params.get(f"{name}.layers.{index}.bias")))
                index += 1
            if not layers:
                raise KeyError(f"module has no MLP parameters under {name!r}")
            self._mlp_layers[name] = layers
        return mlp(x, layers, ACTIVATIONS[activation][1])
