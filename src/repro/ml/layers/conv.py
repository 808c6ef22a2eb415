"""1-D convolution over token sequences ("wide CNN" of Figs 6 and 8)."""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError
from ..init import xavier_uniform
from ..module import Module, Parameter
from ..tensor import Tensor, custom_op


def conv1d(x: np.ndarray, weight: np.ndarray,
           bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-padded 1-D convolution over ``(..., time, in_dim)`` arrays as
    an im2col + matmul (``weight`` is ``(kernel * in_dim, out_dim)``):
    the output, and the columns the backward pass reads."""
    *lead, time, dim = x.shape
    kernel = weight.shape[0] // dim
    half = kernel // 2
    cols = np.zeros((*lead, time, kernel * dim))
    for offset in range(kernel):
        # Read the input shifted by ``shift``; padding columns stay zero.
        shift = offset - half
        lo, hi = max(0, -shift), min(time, time - shift)
        if lo < hi:
            cols[..., lo:hi, offset * dim:(offset + 1) * dim] = \
                x[..., lo + shift:hi + shift, :]
    return cols @ weight + bias, cols


class Conv1d(Module):
    """Same-padded 1-D convolution over ``(batch, time, in_dim)``.

    One tape node: the forward is :func:`conv1d` and the backward is
    hand-written, far cheaper than composing it from primitive ops.

    Args:
        in_dim: Input feature dimension.
        out_dim: Number of output channels.
        kernel_size: Window width (odd, so "same" padding is symmetric).
    """

    def __init__(self, in_dim: int, out_dim: int, kernel_size: int,
                 rng: np.random.Generator):
        super().__init__()
        if kernel_size % 2 == 0 or kernel_size <= 0:
            raise ShapeError(f"kernel_size must be a positive odd int, got {kernel_size}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.kernel_size = kernel_size
        fan_in = in_dim * kernel_size
        self.weight = Parameter(
            xavier_uniform(rng, fan_in, out_dim, shape=(fan_in, out_dim)))
        self.bias = Parameter(np.zeros(out_dim))

    def forward(self, x: Tensor) -> Tensor:
        """Convolve; output shape ``(batch, time, out_dim)``."""
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise ShapeError(
                f"Conv1d expects (batch, time, {self.in_dim}), got {x.shape}")
        batch, time, dim = x.shape
        out, cols = conv1d(x.data, self.weight.data, self.bias.data)
        weight, bias, kernel = self.weight, self.bias, self.kernel_size

        def backward(grad: np.ndarray) -> None:
            flat_cols = cols.reshape(-1, kernel * dim)
            flat_grad = grad.reshape(-1, weight.data.shape[1])
            weight._accumulate(flat_cols.T @ flat_grad)
            bias._accumulate(flat_grad.sum(axis=0))
            if x.requires_grad:
                grad_cols = flat_grad @ weight.data.T
                grad_cols = grad_cols.reshape(batch, time, kernel * dim)
                half = kernel // 2
                grad_padded = np.zeros((batch, time + 2 * half, dim))
                for offset in range(kernel):
                    grad_padded[:, offset:offset + time, :] += \
                        grad_cols[:, :, offset * dim:(offset + 1) * dim]
                x._accumulate(grad_padded[:, half:half + time, :])

        return custom_op((x, weight, bias), out, backward)
