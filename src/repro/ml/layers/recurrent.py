"""LSTM and BiLSTM encoders (batch-first).

The paper uses BiLSTM encoders in four of its five models (Figs 4, 5, 6).
An LSTM call records one tape node: the forward is :func:`lstm`, the
recurrence on plain arrays that inference sessions also call, and the
backward is hand-written backpropagation through time.  Composed from
primitive autograd ops, the same recurrence records about 19 nodes per
step and direction, and the engine's bookkeeping for them costs more
than the arithmetic.

The fused node is bit-identical to the composed recurrence, values and
gradients alike: the forward repeats its per-step expressions operation
for operation (no GEMM over all steps, whose rounding can differ from the
per-step products), and the backward adds each parameter's per-step
gradients in reverse time order, the order the tape adds them.
``tests/test_ml_fused.py`` keeps the composed recurrence as the oracle.
"""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError
from ..init import xavier_uniform
from ..module import Module, Parameter
from ..tensor import Tensor, concat, custom_op, is_grad_enabled


def lstm(data, w_input, w_hidden, bias, keep_steps=False):
    """The LSTM recurrence over a ``(batch, time, dim)`` array: the
    ``(batch, time, hidden)`` states and, if ``keep_steps``, the per-step
    ``(h_prev, c_prev, i, f, g, o, tanh(c))`` the backward pass reads."""
    batch, time, _ = data.shape
    h_dim = w_hidden.shape[0]
    h = np.zeros((batch, h_dim))
    c = np.zeros((batch, h_dim))
    out = np.empty((batch, time, h_dim))
    steps = [] if keep_steps else None
    for t in range(time):
        z = data[:, t, :] @ w_input + h @ w_hidden + bias
        i_gate = 1.0 / (1.0 + np.exp(-z[:, 0:h_dim]))
        f_gate = 1.0 / (1.0 + np.exp(-z[:, h_dim : 2 * h_dim]))
        g_cell = np.tanh(z[:, 2 * h_dim : 3 * h_dim])
        o_gate = 1.0 / (1.0 + np.exp(-z[:, 3 * h_dim : 4 * h_dim]))
        c_prev, h_prev = c, h
        c = f_gate * c_prev + i_gate * g_cell
        tanh_c = np.tanh(c)
        h = o_gate * tanh_c
        out[:, t, :] = h
        if steps is not None:
            steps.append((h_prev, c_prev, i_gate, f_gate, g_cell, o_gate, tanh_c))
    return out, steps


def bidirectional(x, forward, backward, join):
    """Run ``forward`` over ``(batch, time, dim)`` input and ``backward``
    over it time-reversed, and join both along features: :class:`BiLSTM`
    on tensors (``join=concat``), inference sessions on arrays."""
    reverse = np.arange(x.shape[1] - 1, -1, -1)
    return join([forward(x), backward(x[:, reverse, :])[:, reverse, :]], axis=2)


class LSTM(Module):
    """Single-direction LSTM over ``(batch, time, dim)`` inputs.

    Gate order in the packed weight matrices is ``[input, forget, cell,
    output]``.  The forget-gate bias is initialised to 1.0, the standard
    trick for stable early training.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_input = Parameter(xavier_uniform(rng, input_dim, 4 * hidden_dim))
        self.w_hidden = Parameter(xavier_uniform(rng, hidden_dim, 4 * hidden_dim))
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim : 2 * hidden_dim] = 1.0
        self.bias = Parameter(bias)

    def forward(self, x: Tensor) -> Tensor:
        """Encode a batch of sequences.

        Args:
            x: Tensor of shape ``(batch, time, input_dim)``.

        Returns:
            Hidden states of shape ``(batch, time, hidden_dim)``.
        """
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ShapeError(
                f"LSTM expects (batch, time, {self.input_dim}), got {x.shape}"
            )
        batch, time, _ = x.shape
        h_dim = self.hidden_dim
        data = x.data
        w_input, w_hidden, bias = self.w_input, self.w_hidden, self.bias
        out, steps = lstm(
            data, w_input.data, w_hidden.data, bias.data, keep_steps=is_grad_enabled()
        )

        def backward(grad: np.ndarray) -> None:
            d_x = np.empty_like(data) if x.requires_grad else None
            d_h_next = d_c_next = None
            for t in range(time - 1, -1, -1):
                h_prev, c_prev, i_gate, f_gate, g_cell, o_gate, tanh_c = steps[t]
                d_h = grad[:, t, :]
                if d_h_next is not None:
                    d_h = d_h + d_h_next
                d_c = d_h * o_gate * (1.0 - tanh_c**2)
                if d_c_next is not None:
                    d_c = d_c + d_c_next
                d_z = np.empty((batch, 4 * h_dim))
                d_z[:, 0:h_dim] = d_c * g_cell * i_gate * (1.0 - i_gate)
                d_z[:, h_dim : 2 * h_dim] = d_c * c_prev * f_gate * (1.0 - f_gate)
                d_z[:, 2 * h_dim : 3 * h_dim] = d_c * i_gate * (1.0 - g_cell**2)
                d_z[:, 3 * h_dim : 4 * h_dim] = d_h * tanh_c * o_gate * (1.0 - o_gate)
                bias._accumulate(d_z.sum(axis=0))
                if d_x is not None:
                    d_x[:, t, :] = d_z @ w_input.data.T
                w_input._accumulate(data[:, t, :].T @ d_z)
                if t > 0:
                    d_h_next = d_z @ w_hidden.data.T
                    d_c_next = d_c * f_gate
                w_hidden._accumulate(h_prev.T @ d_z)
            if d_x is not None:
                x._accumulate(d_x)

        return custom_op((x, w_input, w_hidden, bias), out, backward)


class BiLSTM(Module):
    """Bidirectional LSTM; outputs forward and backward states concatenated.

    Args:
        input_dim: Input feature dimension.
        hidden_dim: Hidden size *per direction*; the output feature dimension
            is ``2 * hidden_dim``.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.forward_lstm = LSTM(input_dim, hidden_dim, rng)
        self.backward_lstm = LSTM(input_dim, hidden_dim, rng)
        self.output_dim = 2 * hidden_dim

    def forward(self, x: Tensor) -> Tensor:
        """Encode ``(batch, time, dim)`` into ``(batch, time, 2*hidden)``."""
        return bidirectional(x, self.forward_lstm, self.backward_lstm, concat)
