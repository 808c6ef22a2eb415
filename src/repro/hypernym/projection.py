"""Projection learning for hypernym scoring (Eqs. 1-2).

Given embeddings p (hyponym) and h (candidate hypernym), a K-layer
projection tensor produces scores ``s_k = p^T T_k h``; a fully-connected
layer with sigmoid turns the K scores into a probability.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import DataError, NotFittedError
from ..ml import Adam, Linear, Module
from ..ml.losses import bce_with_logits
from ..ml.module import Parameter
from ..ml.tensor import Tensor, no_grad, stack
from ..utils.metrics import (
    mean_average_precision, mean_reciprocal_rank,
    precision_at_k,
)
from ..utils.rng import spawn_rng
from .dataset import HypernymDataset, LabelledPair

PhraseEmbedder = Callable[[str], np.ndarray]


class ProjectionModel(Module):
    """The projection-tensor hypernymy scorer.

    Args:
        embedder: Maps a concept surface to a fixed vector.
        dim: Embedding dimension the embedder produces.
        k_layers: Number of projection matrices (the K of Eq. 1).
        seed: Weight-init seed.
    """

    def __init__(self, embedder: PhraseEmbedder, dim: int, k_layers: int = 4,
                 seed: int = 0):
        super().__init__()
        rng = spawn_rng(seed, "projection")
        self.embedder = embedder
        self.dim = dim
        self.k_layers = k_layers
        self.tensors = Parameter(rng.normal(0.0, 0.3, size=(k_layers, dim, dim)))
        self.output = Linear(k_layers, 1, rng)
        self._fitted = False
        self._cache: dict[str, np.ndarray] = {}

    def _vector(self, surface: str) -> np.ndarray:
        if surface not in self._cache:
            vector = np.asarray(self.embedder(surface), dtype=np.float64)
            if vector.shape != (self.dim,):
                raise DataError(
                    f"embedder returned shape {vector.shape}, expected ({self.dim},)")
            self._cache[surface] = vector
        return self._cache[surface]

    def logits(self, pairs: Sequence[tuple[str, str]]) -> Tensor:
        """Pre-sigmoid scores for a batch of (hyponym, hypernym) pairs."""
        if not pairs:
            raise DataError("empty batch")
        p = Tensor(np.stack([self._vector(a) for a, _ in pairs]))
        h = Tensor(np.stack([self._vector(b) for _, b in pairs]))
        layer_scores = []
        for k in range(self.k_layers):
            projected = p @ self.tensors[k]           # (B, d)
            layer_scores.append((projected * h).sum(axis=1))
        s = stack(layer_scores, axis=1)               # (B, K)
        return self.output(s).reshape(len(pairs))

    def scores(self, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        """Probabilities in [0, 1] for a batch of pairs (no grad)."""
        with no_grad():
            logits = self.logits(pairs)
        return 1.0 / (1.0 + np.exp(-logits.numpy()))

    def fit(self, labelled: list[LabelledPair], epochs: int = 20,
            lr: float = 0.02, batch_size: int = 64, seed: int = 0,
            balance: bool = True) -> list[float]:
        """Train on labelled pairs; returns mean loss per epoch.

        Args:
            balance: Upweight positives by the class ratio — with the
                paper's N up to 200 negatives per positive, unweighted BCE
                lets positives drown.
        """
        if not labelled:
            raise DataError("projection model needs training pairs")
        rng = spawn_rng(seed, "projection-train")
        optimizer = Adam(self.parameters(), lr=lr)
        positive_weight = 1.0
        if balance:
            n_pos = sum(1 for _, _, y in labelled if y == 1)
            n_neg = len(labelled) - n_pos
            if n_pos and n_neg:
                positive_weight = n_neg / n_pos
        history: list[float] = []
        for _ in range(epochs):
            order = rng.permutation(len(labelled))
            total = 0.0
            batches = 0
            for start in range(0, len(labelled), batch_size):
                batch = [labelled[i] for i in order[start:start + batch_size]]
                pairs = [(a, b) for a, b, _ in batch]
                targets = np.array([y for _, _, y in batch], dtype=float)
                weights = np.where(targets == 1, positive_weight, 1.0)
                optimizer.zero_grad()
                loss = bce_with_logits(self.logits(pairs), targets,
                                       weights=weights)
                loss.backward()
                optimizer.step()
                total += loss.item()
                batches += 1
            history.append(total / batches)
        self._fitted = True
        return history

    # ------------------------------------------------------------ evaluation
    def rank_candidates(self, hyponym: str,
                        candidates: Sequence[str]) -> list[str]:
        """Candidates sorted by descending hypernymy score."""
        if not self._fitted:
            raise NotFittedError("projection model has not been trained")
        pool = [c for c in candidates if c != hyponym]
        scores = self.scores([(hyponym, c) for c in pool])
        order = np.argsort(-scores, kind="mergesort")
        return [pool[i] for i in order]

    def evaluate(self, dataset: HypernymDataset,
                 max_candidates: int | None = 150,
                 seed: int = 0) -> dict[str, float]:
        """MAP / MRR / P@1 over the test split (Table 3's metrics).

        Args:
            dataset: The dataset whose test positives to rank.
            max_candidates: Subsample of the pool per hyponym (always
                including the gold hypernyms) to bound cost.
            seed: Candidate-subsample seed.
        """
        gold = dataset.test_gold()
        if not gold:
            raise DataError("dataset has no test positives")
        rng = spawn_rng(seed, "projection-eval")
        relevance_lists = []
        hits_at_1 = []
        for hyponym, hypernyms in sorted(gold.items()):
            pool = [c for c in dataset.candidate_pool if c != hyponym]
            if max_candidates is not None and len(pool) > max_candidates:
                sampled = list(rng.choice(
                    [c for c in pool if c not in hypernyms],
                    size=max_candidates - len(hypernyms), replace=False))
                pool = sampled + sorted(hypernyms)
            ranked = self.rank_candidates(hyponym, pool)
            relevance = [1 if c in hypernyms else 0 for c in ranked]
            relevance_lists.append(relevance)
            hits_at_1.append(precision_at_k(relevance, 1))
        return {
            "map": mean_average_precision(relevance_lists),
            "mrr": mean_reciprocal_rank(relevance_lists),
            "p@1": float(np.mean(hits_at_1)),
        }
