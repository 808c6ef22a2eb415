"""Training utilities shared by the model trainers.

Small, composable pieces: mini-batch iteration, early stopping and a
learning-curve record — the plumbing every one of the paper's five models
needs around its epoch loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, TypeVar

import numpy as np

from ..errors import DataError

T = TypeVar("T")


def minibatches(data: Sequence[T], batch_size: int,
                rng: np.random.Generator | None = None) -> Iterator[list[T]]:
    """Yield shuffled mini-batches covering ``data`` exactly once.

    Args:
        data: The dataset.
        batch_size: Maximum batch size (last batch may be smaller).
        rng: Optional generator; order is preserved when omitted.

    Raises:
        DataError: On an empty dataset or non-positive batch size.
    """
    if not data:
        raise DataError("cannot batch an empty dataset")
    if batch_size <= 0:
        raise DataError(f"batch_size must be positive, got {batch_size}")
    order = np.arange(len(data))
    if rng is not None:
        order = rng.permutation(len(data))
    for start in range(0, len(data), batch_size):
        yield [data[int(i)] for i in order[start:start + batch_size]]


@dataclass
class EarlyStopping:
    """Patience-based stopping on a metric (mode='min' for losses).

    Call :meth:`update` after each epoch; it returns True while training
    should continue.
    """

    patience: int = 3
    mode: str = "min"
    min_delta: float = 1e-6
    best: float | None = None
    stale: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("min", "max"):
            raise DataError(f"mode must be 'min' or 'max', got {self.mode!r}")
        if self.patience < 1:
            raise DataError("patience must be >= 1")

    def update(self, value: float) -> bool:
        """Record a new metric value; returns whether to keep training."""
        improved = (self.best is None
                    or (self.mode == "min" and value < self.best - self.min_delta)
                    or (self.mode == "max" and value > self.best + self.min_delta))
        if improved:
            self.best = value
            self.stale = 0
        else:
            self.stale += 1
        return self.stale < self.patience

    @property
    def should_stop(self) -> bool:
        return self.stale >= self.patience


@dataclass
class LearningCurve:
    """Per-epoch metric record with convenience accessors."""

    epochs: list[dict[str, float]] = field(default_factory=list)

    def record(self, **metrics: float) -> None:
        self.epochs.append(dict(metrics))

    def series(self, key: str) -> list[float]:
        """All recorded values of one metric.

        Raises:
            DataError: If an epoch is missing the metric (matching
                :meth:`best_epoch`, which also raises ``DataError`` —
                the old ``KeyError`` leaked an implementation detail).
        """
        values: list[float] = []
        for position, epoch in enumerate(self.epochs):
            try:
                values.append(epoch[key])
            except KeyError:
                recorded = ", ".join(sorted(epoch)) or "<none>"
                raise DataError(
                    f"metric {key!r} missing from epoch {position} "
                    f"(recorded: {recorded})") from None
        return values

    def best_epoch(self, key: str, mode: str = "min") -> int:
        """Index of the best epoch by a metric."""
        values = self.series(key)
        if not values:
            raise DataError("no epochs recorded")
        array = np.asarray(values)
        return int(np.argmin(array) if mode == "min" else np.argmax(array))
