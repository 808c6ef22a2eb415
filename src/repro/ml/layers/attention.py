"""Additive self-attention, as used throughout the paper's encoders."""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError
from ..module import Module
from ..tensor import Tensor, custom_op, softmax, softmax_backward
from .linear import Linear, linear


def self_attention(hidden, w_query, w_key, w_score):
    """Additive self-attention over a ``(batch, time, dim)`` array: the
    mixed states, and the ``(pairs, energies, weights)`` backward reads."""
    batch, time, _ = hidden.shape
    queries = linear(hidden, w_query)  # (B, T, A)
    keys = linear(hidden, w_key)       # (B, T, A)
    # Broadcast to all pairs: (B, T, 1, A) + (B, 1, T, A).
    attn_dim = queries.shape[2]
    pairs = np.tanh(queries.reshape(batch, time, 1, attn_dim)
                    + keys.reshape(batch, 1, time, attn_dim))
    energies = linear(pairs, w_score).reshape(batch, time, time)
    weights = softmax(energies, axis=2)
    return weights @ hidden, (pairs, energies, weights)


class AdditiveSelfAttention(Module):
    """Token-pair additive attention over a sequence.

    For input ``H = (batch, time, dim)`` it computes pairwise scores
    ``e_ij = v^T tanh(W1 h_i + W2 h_j)``, row-normalises them with softmax,
    and returns context-mixed states ``H' = softmax(E) @ H`` — letting each
    word adjust its representation by looking at its neighbours, the role
    self-attention plays in Figs 5, 6 and 8.

    One tape node: the forward is :func:`self_attention`, and the
    hand-written backward adds the input's gradient parts in the tape's
    order (mixing product, query, key), so every gradient equals the
    composed ops' bit for bit (the oracle in ``tests/test_ml_fused.py``).
    """

    def __init__(self, dim: int, attention_dim: int, rng: np.random.Generator):
        super().__init__()
        self.query = Linear(dim, attention_dim, rng, bias=False)
        self.key = Linear(dim, attention_dim, rng, bias=False)
        self.score = Linear(attention_dim, 1, rng, bias=False)

    def forward(self, hidden: Tensor) -> Tensor:
        """Return contextualised states with the same shape as the input."""
        if hidden.ndim != 3:
            raise ShapeError(f"expected (batch, time, dim), got {hidden.shape}")
        batch, time, _ = hidden.shape
        w_query, w_key, w_score = self.query.weight, self.key.weight, self.score.weight
        out, (pairs, energies, weights) = self_attention(
            hidden.data, w_query.data, w_key.data, w_score.data)

        def backward(grad: np.ndarray) -> None:
            x = hidden.data
            if hidden.requires_grad:
                hidden._accumulate(weights.swapaxes(-1, -2) @ grad)
            direct, through_lse = softmax_backward(
                grad @ x.swapaxes(-1, -2), weights, energies, 2)
            d_scores = (direct + through_lse).reshape(batch, time, time, 1)
            w_score._accumulate((pairs.swapaxes(-1, -2) @ d_scores).sum(axis=(0, 1)))
            d_pairs = (d_scores @ w_score.data.T) * (1.0 - pairs ** 2)
            for axis, weight in ((2, w_query), (1, w_key)):
                d_side = d_pairs.sum(axis=axis)
                if hidden.requires_grad:
                    hidden._accumulate(d_side @ weight.data.T)
                weight._accumulate((x.swapaxes(-1, -2) @ d_side).sum(axis=0))

        return custom_op((hidden, w_query, w_key, w_score), out, backward)
