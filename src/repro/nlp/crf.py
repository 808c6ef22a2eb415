"""Linear-chain CRF with an optional *fuzzy* likelihood (Eq. 8).

Used on top of the BiLSTM encoders for vocabulary mining (Fig 4) and
e-commerce concept tagging (Fig 6).  The fuzzy variant replaces the single
gold path in the numerator with the log-sum over *all* label sequences
compatible with per-position allowed-label sets — the paper's mechanism for
words like "village" that are valid under both ``Location`` and ``Style``.

The log-partition (strict or restricted to allowed labels) is one tape
node with a hand-written backward.  Composed from ``Tensor`` ops it
records about five nodes per step; the fused node repeats their
arithmetic operation for operation, so losses and gradients are
bit-identical to the composed form that ``tests/test_ml_fused.py`` keeps
as the oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DataError, ShapeError
from ..ml.module import Module, Parameter
from ..ml.tensor import Tensor, custom_op, logsumexp_softmax

_NEG_INF = -1e9


class LinearChainCRF(Module):
    """CRF layer over per-position label emissions.

    Args:
        num_labels: Size of the label set.
        rng: Generator for transition initialisation.
    """

    def __init__(self, num_labels: int, rng: np.random.Generator):
        super().__init__()
        if num_labels < 1:
            raise DataError(f"num_labels must be >= 1, got {num_labels}")
        self.num_labels = num_labels
        self.transitions = Parameter(
            rng.normal(0.0, 0.1, size=(num_labels, num_labels))
        )
        self.start_scores = Parameter(rng.normal(0.0, 0.1, size=num_labels))
        self.end_scores = Parameter(rng.normal(0.0, 0.1, size=num_labels))

    # ------------------------------------------------------------- internals
    def _check_emissions(self, emissions: Tensor) -> None:
        if emissions.ndim != 2 or emissions.shape[1] != self.num_labels:
            raise ShapeError(
                f"emissions must be (time, {self.num_labels}), got {emissions.shape}"
            )
        if emissions.shape[0] == 0:
            raise DataError("CRF needs at least one time step")

    def _log_partition(
        self, emissions: Tensor, allowed: Sequence[Sequence[int]] | None = None
    ) -> Tensor:
        """Log-sum of path scores; restricted to ``allowed`` labels if given.

        One tape node: the forward algorithm runs on plain arrays with
        ``Tensor.logsumexp``'s arithmetic (``logsumexp_softmax``), and the
        backward walks the per-step softmaxes it stored.
        """
        time, num_labels = emissions.shape
        masks = None
        if allowed is not None:
            masks = np.full((time, num_labels), _NEG_INF)
            for t, labels in enumerate(allowed):
                if not labels:
                    raise DataError(f"empty allowed-label set at position {t}")
                masks[t, list(labels)] = 0.0
        data = emissions.data
        transitions, start, end = self.transitions, self.start_scores, self.end_scores
        alpha = start.data + data[0, :]
        if masks is not None:
            alpha = alpha + masks[0]
        softmaxes = []
        for t in range(1, time):
            step = data[t, :]
            if masks is not None:
                step = step + masks[t]
            scores = alpha.reshape(num_labels, 1) + transitions.data + step
            lse, softmax = logsumexp_softmax(scores, axis=0)
            alpha = lse[0]
            softmaxes.append(softmax)
        lse, final_softmax = logsumexp_softmax(alpha + end.data, axis=0)

        def backward(grad: np.ndarray) -> None:
            d_alpha = np.expand_dims(grad, 0) * final_softmax
            end._accumulate(d_alpha)
            d_emissions = np.empty_like(data)
            for t in range(time - 1, 0, -1):
                d_scores = np.expand_dims(d_alpha, 0) * softmaxes[t - 1]
                d_emissions[t] = d_scores.sum(axis=0)
                transitions._accumulate(d_scores)
                d_alpha = d_scores.sum(axis=1, keepdims=True).reshape(num_labels)
            start._accumulate(d_alpha)
            d_emissions[0] = d_alpha
            emissions._accumulate(d_emissions)

        return custom_op((emissions, transitions, start, end), lse[0], backward)

    def _path_score(self, emissions: Tensor, labels: Sequence[int]) -> Tensor:
        ids = np.asarray(labels, dtype=np.intp)
        positions = np.arange(len(ids))
        score = emissions[positions, ids].sum()
        score = score + self.start_scores[int(ids[0])] + self.end_scores[int(ids[-1])]
        if len(ids) > 1:
            score = score + self.transitions[ids[:-1], ids[1:]].sum()
        return score

    # ------------------------------------------------------------------- API
    def nll(self, emissions: Tensor, labels: Sequence[int]) -> Tensor:
        """Negative log-likelihood of one gold label sequence.

        Args:
            emissions: ``(time, num_labels)`` scores from the encoder.
            labels: Gold label ids, one per time step.
        """
        self._check_emissions(emissions)
        if len(labels) != emissions.shape[0]:
            raise ShapeError(
                f"{len(labels)} labels for {emissions.shape[0]} time steps"
            )
        return self._log_partition(emissions) - self._path_score(emissions, labels)

    def fuzzy_nll(self, emissions: Tensor, allowed: Sequence[Sequence[int]]) -> Tensor:
        """Fuzzy-CRF loss (Eq. 8): every path through the per-position
        allowed-label sets counts as gold.

        Args:
            emissions: ``(time, num_labels)`` scores from the encoder.
            allowed: For each position, the collection of acceptable labels.
        """
        self._check_emissions(emissions)
        if len(allowed) != emissions.shape[0]:
            raise ShapeError(
                f"{len(allowed)} allowed-sets for {emissions.shape[0]} time steps"
            )
        numerator = self._log_partition(emissions, allowed=allowed)
        denominator = self._log_partition(emissions)
        return denominator - numerator

    def decode(self, emissions: np.ndarray) -> list[int]:
        """Viterbi-decode the best label sequence (pure numpy).

        Args:
            emissions: ``(time, num_labels)`` array of emission scores.
        """
        emissions = np.asarray(emissions, dtype=float)
        if emissions.ndim != 2 or emissions.shape[1] != self.num_labels:
            raise ShapeError(
                f"emissions must be (time, {self.num_labels}), got {emissions.shape}"
            )
        time = emissions.shape[0]
        if time == 0:
            raise DataError("cannot decode an empty sequence")
        transitions = self.transitions.data
        delta = self.start_scores.data + emissions[0]
        backpointers = np.zeros((time, self.num_labels), dtype=np.intp)
        for t in range(1, time):
            scores = delta[:, None] + transitions + emissions[t][None, :]
            backpointers[t] = np.argmax(scores, axis=0)
            delta = scores[backpointers[t], np.arange(self.num_labels)]
        delta = delta + self.end_scores.data
        best_last = int(np.argmax(delta))
        path = [best_last]
        for t in range(time - 1, 0, -1):
            path.append(int(backpointers[t][path[-1]]))
        return list(reversed(path))
