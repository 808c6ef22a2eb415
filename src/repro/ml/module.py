"""Module/Parameter base classes, mirroring the familiar torch.nn layout."""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A tensor that is always trainable."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        # Parameters must stay trainable even when created under no_grad().
        self.requires_grad = True


class Module:
    """Base class for neural-network components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; ``parameters()`` discovers them recursively.  ``training``
    toggles behaviours such as dropout.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------- discovery
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, element in enumerate(value):
                    if isinstance(element, Parameter):
                        yield f"{full}.{i}", element
                    elif isinstance(element, Module):
                        yield from element.named_parameters(prefix=f"{full}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for element in value:
                    if isinstance(element, Module):
                        yield from element.modules()

    # ----------------------------------------------------------------- state
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    @contextlib.contextmanager
    def eval_mode(self):
        """Temporarily put the module tree in eval mode, then restore.

        Restores each submodule's previous ``training`` flag on exit,
        even on exceptions.  Note the flags themselves are plain instance
        state: toggling them is *not* thread-safe against a concurrent
        ``train()`` on the same module — a served module should be put in
        eval mode once and left there (see :mod:`repro.serving.models`),
        in which case re-entering this context is a no-op.
        """
        previous = [(module, module.training) for module in self.modules()]
        for module, _ in previous:
            module.training = False
        try:
            yield self
        finally:
            for module, was_training in previous:
                module.training = was_training

    def inference_session(self):
        """The module's :class:`~repro.ml.inference.InferenceSession`,
        extracted once (a concurrent second extraction is benign)."""
        session = self.__dict__.get("_inference_session")
        if session is None:
            from .inference import InferenceSession  # it imports the layers

            session = self._inference_session = InferenceSession(self)
        return session

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by its dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values saved by :meth:`state_dict`.

        Raises:
            KeyError: If a parameter is missing from ``state``.
        """
        for name, param in self.named_parameters():
            param.data[...] = state[name]

    # ------------------------------------------------------------------ call
    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError
