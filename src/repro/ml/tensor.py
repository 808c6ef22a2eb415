"""Reverse-mode automatic differentiation on numpy arrays.

A :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations that
produced it.  Calling :meth:`Tensor.backward` on a scalar result walks the
recorded graph in reverse topological order and accumulates gradients into
every tensor created with ``requires_grad=True``.

The op set is intentionally small — exactly what the paper's five models
need: arithmetic with broadcasting, matmul, the usual nonlinearities,
reductions, indexing/gather (for embeddings), concat/stack, and logsumexp
(for softmax).  Layers whose gradients are cheaper to derive by hand (the
conv, the LSTM and the CRF partition) record one node through
:func:`custom_op`.

**Inference mode is context-local.**  Graph recording is controlled by a
:class:`contextvars.ContextVar`, not a module global: every thread (and
every async task) owns an independent flag.  A serving thread inside
:func:`no_grad` can therefore never switch off recording for a training
thread mid-backward, and two overlapping ``no_grad()`` windows in
different threads cannot re-enable each other on exit — the failure mode
of the old module-global flag, where the first thread's ``finally``
restored ``True`` while the second thread was still inside its window,
silently polluting its "inference" tensors with graph nodes.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ShapeError

#: Context-local graph-recording flag.  Each thread starts at the default
#: (enabled); ``no_grad`` swaps it via set/reset tokens so nesting and
#: exceptions restore the exact previous state.
_GRAD_ENABLED: ContextVar[bool] = ContextVar("repro_grad_enabled", default=True)


def is_grad_enabled() -> bool:
    """Whether tensor ops in the current context record the autodiff graph."""
    return _GRAD_ENABLED.get()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (for inference).

    The switch is context-local: other threads' recording state is
    untouched, so concurrent inference and training never interfere.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an autodiff tape.

    Attributes:
        data: The underlying float64 numpy array.
        grad: Accumulated gradient (same shape as ``data``) or ``None``.
        requires_grad: Whether gradients should flow into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple["Tensor", ...] = (),
                 _backward: Callable[[np.ndarray], None] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        enabled = _GRAD_ENABLED.get()
        self.requires_grad = bool(requires_grad) and enabled
        self._parents = _parents if enabled else ()
        self._backward = _backward if enabled else None

    # ------------------------------------------------------------------ intro
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the raw array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------- graph glue
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        if _GRAD_ENABLED.get():
            for parent in parents:
                if parent.requires_grad:
                    return Tensor(data, requires_grad=True,
                                  _parents=tuple(parents), _backward=backward)
        return Tensor(data)

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # The bits of ``zeros_like(data) + grad`` (shape, memory layout,
            # -0.0 -> +0.0) in one ufunc call.
            self.grad = np.add(grad, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Args:
            grad: Upstream gradient; defaults to 1.0 (scalar outputs only).

        Raises:
            ShapeError: If called without ``grad`` on a non-scalar tensor.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without grad requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------ arithmetic
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data ** 2), other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.multiply.outer(grad, other.data) \
                        if self.data.ndim > 1 else grad * other.data
                    # outer handles (..., n) @ (n,) -> (...,)
                    self._accumulate(_unbroadcast(np.asarray(grad_self), self.shape))
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(grad_self, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.multiply.outer(self.data, grad) \
                        if other.data.ndim > 1 else self.data * grad
                    other._accumulate(_unbroadcast(np.asarray(grad_other), other.shape))
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(_unbroadcast(grad_other, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    # ---------------------------------------------------------- elementwise
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = sigmoid(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = relu(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------ reductions
    def sum(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(ax % self.data.ndim for ax in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(np.asarray(out_data), (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=True)
        mask = (self.data == out_data)
        # Split gradient equally among ties for stability.
        counts = mask.sum(axis=axis, keepdims=True)
        if not keepdims:
            out = np.squeeze(out_data, axis=axis)
        else:
            out = out_data

        def backward(grad: np.ndarray) -> None:
            g = grad if keepdims else np.expand_dims(grad, axis)
            self._accumulate(mask * g / counts)

        return Tensor._make(np.asarray(out), (self,), backward)

    def logsumexp(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Numerically stable log-sum-exp along ``axis``."""
        out_keep, softmax = logsumexp_softmax(self.data, axis)
        out = out_keep if keepdims else np.squeeze(out_keep, axis=axis)

        def backward(grad: np.ndarray) -> None:
            g = grad if keepdims else np.expand_dims(grad, axis)
            self._accumulate(g * softmax)

        return Tensor._make(np.asarray(out), (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        out_data = softmax(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            for part in softmax_backward(grad, out_data, self.data, axis):
                self._accumulate(part)

        return Tensor._make(out_data, (self,), backward)

    # --------------------------------------------------------------- reshape
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes_tuple)
        inverse = np.argsort(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(np.asarray(out_data), (self,), backward)

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Embedding-style lookup: rows of a 2-D tensor by integer indices.

        Args:
            indices: Integer array of any shape; output has shape
                ``indices.shape + (dim,)``.
        """
        idx = np.asarray(indices, dtype=np.intp)
        out_data = gather_rows(self.data, idx)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = np.zeros_like(self.data)
            np.add.at(full, idx.reshape(-1), grad.reshape(-1, self.shape[1]))
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)


def logsumexp_softmax(data: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted log-sum-exp of ``data`` along ``axis`` (kept as a
    length-1 axis) and the softmax along it, on plain arrays.

    The one copy of this arithmetic: :meth:`Tensor.logsumexp` and the
    CRF's fused forward algorithm both call it, so they agree bit for bit.
    """
    m = data.max(axis=axis, keepdims=True)
    shifted = np.exp(data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    return m + np.log(total), shifted / total


# The plain forwards of the activation ops, shared with tape-free inference.
def gather_rows(table: np.ndarray, ids) -> np.ndarray:
    """Rows of a 2-D ``table`` by integer ``ids`` of any shape (output
    shape ``ids.shape + (dim,)``): the embedding lookup on plain arrays.

    Raises:
        ShapeError: If ``table`` is not 2-D.
    """
    if table.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D table, got {table.shape}")
    return table[np.asarray(ids, dtype=np.intp)]


def relu(data: np.ndarray) -> np.ndarray:
    return data * (data > 0)  # a mask-multiply, not np.maximum


def sigmoid(data: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-data))  # naive; see inference.stable_sigmoid


def softmax(data: np.ndarray, axis: int = -1) -> np.ndarray:
    # exp(x - logsumexp(x)), not exp(x - max) / sum, which rounds differently.
    return np.exp(data - logsumexp_softmax(data, axis)[0])


def softmax_backward(grad: np.ndarray, out: np.ndarray, data: np.ndarray,
                     axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The input gradient of :func:`softmax` as the two parts the composed
    ``(x - x.logsumexp()).exp()`` adds, in its order; adding them in this
    order keeps gradients bit-identical to the composed op's."""
    direct = grad * out
    total = direct.sum(axis=axis, keepdims=True)
    return direct, -total * logsumexp_softmax(data, axis)[1]


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack equally-shaped tensors along a new axis (differentiable)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for i, tensor in enumerate(tensors):
            tensor._accumulate(np.take(grad, i, axis=axis))

    return Tensor._make(out_data, tensors, backward)


def custom_op(inputs: Iterable[Tensor], out_data: np.ndarray,
              backward: Callable[[np.ndarray], None]) -> Tensor:
    """Create a tensor from a hand-written forward/backward pair.

    Used by layers (e.g. Conv1d, LSTM, CRF) whose gradients are cheaper to derive
    by hand than to compose from primitive ops.  ``backward`` receives the
    upstream gradient and must call ``_accumulate`` on each input itself.
    """
    return Tensor._make(np.asarray(out_data, dtype=np.float64),
                        tuple(inputs), backward)
