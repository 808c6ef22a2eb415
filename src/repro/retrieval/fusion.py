"""Reciprocal Rank Fusion: one candidate list out of many retrievers.

BM25 misses semantic drift ("mid-autumn festival gifts" never mentions
moon cakes); dense retrieval misses exact lexical pins (model numbers,
brand names).  RRF fuses their ranked lists without comparing their
incomparable scores: a document at rank ``r`` in an arm contributes
``weight / (k + r)`` (ranks start at 1, ``k = 60`` by default), and
documents are re-ranked by the summed contribution.  Only *ranks* cross
the fusion boundary, so any retriever mix composes.

Determinism: fused ties break by first appearance across the arm lists
(arm order, then rank) — stable under re-fits and snapshot warm starts
because every backend's own ranking is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import ConfigError, DataError
from .base import BaseRetriever, RetrieverStats, check_state_backend
from .dense import BruteForceDense
from .lexical import BM25Retriever

#: The RRF constant from the original Cormack et al. formulation; large
#: enough that depth-of-list matters more than exact rank near the top.
DEFAULT_RRF_K = 60


@dataclass(frozen=True)
class HybridQuery:
    """One query, both arms: tokens for lexical, a vector for dense.

    Either side may be ``None`` when the corresponding arm should sit the
    query out (e.g. no dense encoder available for raw text) — the other
    arm's ranking then passes through fusion unchanged.
    """

    tokens: tuple[str, ...] | None = None
    vector: Any = None


def rrf_fuse(
    rankings: Sequence[Sequence[tuple[Any, float]]],
    k: int = DEFAULT_RRF_K,
    weights: Sequence[float] | None = None,
) -> list[tuple[Any, float]]:
    """Fuse ranked (id, score) lists into one, best first.

    Args:
        rankings: One ranked list per arm (best first).  Empty lists are
            legal (that arm simply contributes nothing); a duplicate id
            within one arm counts once, at its best (first) rank.
        k: The RRF constant; higher flattens rank differences.
        weights: Per-arm multipliers, default all 1.0.

    Returns:
        (id, fused score) pairs sorted by score desc, first-appearance
        order on ties.

    Raises:
        ConfigError: If ``k`` is not positive or the weights count
            disagrees with the arm count.
    """
    if k <= 0:
        raise ConfigError(f"rrf k must be positive, got {k}")
    if weights is None:
        weights = [1.0] * len(rankings)
    if len(weights) != len(rankings):
        raise ConfigError(f"{len(weights)} weights for {len(rankings)} ranked lists")
    fused: dict[Any, float] = {}
    for ranking, weight in zip(rankings, weights):
        seen_in_arm: set = set()
        rank = 0
        for doc_id, _ in ranking:
            if doc_id in seen_in_arm:
                continue
            seen_in_arm.add(doc_id)
            rank += 1
            fused[doc_id] = fused.get(doc_id, 0.0) + weight / (k + rank)
    order = {doc_id: position for position, doc_id in enumerate(fused)}
    return sorted(fused.items(), key=lambda kv: (-kv[1], order[kv[0]]))


class HybridRetriever(BaseRetriever):
    """A dense arm and a lexical arm fused with RRF.

    Args:
        dense: The dense arm, fitted or to be fitted.
        lexical: The BM25 arm.
        rrf_k: RRF constant.
        weights: (dense weight, lexical weight).
        arm_depth: Candidates pulled from each arm before fusion;
            defaults to the query's ``top_k`` (fusion can only surface
            what an arm retrieved, so deeper arms buy recall for work).
    """

    backend = "hybrid"

    def __init__(
        self,
        dense: BruteForceDense,
        lexical: BM25Retriever | None = None,
        rrf_k: int = DEFAULT_RRF_K,
        weights: Sequence[float] = (1.0, 1.0),
        arm_depth: int | None = None,
    ):
        if rrf_k <= 0:
            raise ConfigError(f"rrf_k must be positive, got {rrf_k}")
        if len(tuple(weights)) != 2:
            raise ConfigError(
                f"hybrid weights must be (dense, lexical), got {tuple(weights)!r}"
            )
        if arm_depth is not None and arm_depth <= 0:
            raise ConfigError(f"arm_depth must be positive, got {arm_depth}")
        self.dense = dense
        self.lexical = lexical if lexical is not None else BM25Retriever()
        self.rrf_k = rrf_k
        self.weights = tuple(float(weight) for weight in weights)
        self.arm_depth = arm_depth

    def fit(self, ids: Sequence, data: Sequence) -> "HybridRetriever":
        """Fit both arms from (vector, tokens) pairs, one per id."""
        vectors = [vector for vector, _ in data]
        token_lists = [tokens for _, tokens in data]
        self.dense.fit(ids, vectors)
        self.lexical.fit(ids, token_lists)
        return self

    def add(self, ids: Sequence, data: Sequence) -> "HybridRetriever":
        """Extend both arms with new (vector, tokens) pairs.

        Raises:
            DataError: On a count mismatch in either arm.
        """
        vectors = [vector for vector, _ in data]
        token_lists = [tokens for _, tokens in data]
        self.dense.add(ids, vectors)
        self.lexical.add(ids, token_lists)
        return self

    def retrieve(self, query: Any, top_k: int = 10) -> list[tuple[Any, float]]:
        """RRF over both arms' top lists; an absent side sits out.

        ``query`` is a :class:`HybridQuery` (or anything with ``tokens``
        and ``vector`` attributes).  An **empty** arm — zero tokens, or a
        zero-length vector — is normalised to absent before fusion: an
        empty token list would still walk BM25's postings (retrieving
        nothing) while its arm weight kept diluting the dense ranking,
        which is not what "this arm has no evidence" should mean.

        Raises:
            DataError: Only when *both* sides are empty or ``None``.
        """
        tokens = getattr(query, "tokens", None)
        vector = getattr(query, "vector", None)
        if tokens is not None:
            tokens = tuple(tokens)
            if not tokens:
                tokens = None
        if vector is not None and np.asarray(vector).size == 0:
            vector = None
        if tokens is None and vector is None:
            raise DataError(
                "hybrid query carries neither tokens nor a vector "
                "(empty arms count as absent)"
            )
        depth = self.arm_depth or top_k
        rankings = [
            self.dense.retrieve(vector, depth) if vector is not None else [],
            self.lexical.retrieve(tokens, depth) if tokens is not None else [],
        ]
        return rrf_fuse(rankings, k=self.rrf_k, weights=self.weights)[:top_k]

    def stats(self) -> RetrieverStats:
        dense = self.dense.stats()
        lexical = self.lexical.stats()
        return RetrieverStats(
            backend=self.backend,
            size=max(dense.size, lexical.size),
            dim=dense.dim,
            queries=max(dense.queries, lexical.queries),
            candidates_scored=dense.candidates_scored + lexical.candidates_scored,
            extra={
                "rrf_k": self.rrf_k,
                "weights": self.weights,
                "dense": {"backend": dense.backend, **dense.extra},
                "lexical": lexical.extra,
            },
        )

    def to_state(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "rrf_k": self.rrf_k,
            "weights": list(self.weights),
            "arm_depth": self.arm_depth,
            "dense": self.dense.to_state(),
            "lexical": self.lexical.to_state(),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "HybridRetriever":
        """Rehydrate both fitted arms.

        Raises:
            DataError: On a wrong backend tag or malformed arm states.
        """
        from . import dense_index_from_state

        check_state_backend(state, cls.backend)
        try:
            depth = state.get("arm_depth")
            return cls(
                dense=dense_index_from_state(state["dense"]),
                lexical=BM25Retriever.from_state(state["lexical"]),
                rrf_k=int(state["rrf_k"]),
                weights=[float(weight) for weight in state["weights"]],
                arm_depth=int(depth) if depth is not None else None,
            )
        except (KeyError, TypeError, ValueError) as error:
            raise DataError(f"malformed hybrid retriever state: {error}") from error
