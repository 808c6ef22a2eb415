"""The lexical arm: :class:`~repro.matching.bm25.BM25Index` as a retriever.

The inverted index already answers "which documents best match these
tokens" sublinearly (postings of the query terms only); this adapter
gives it the :class:`~repro.retrieval.base.BaseRetriever` shape so it can
slot into a :class:`~repro.retrieval.fusion.HybridRetriever` next to the
dense arm, carry work counters, and round-trip through snapshots
like every other backend.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..errors import DataError
from .base import BaseRetriever, RetrieverStats, check_state_backend


def _bm25_index_class():
    """Deferred: ``repro.matching`` imports this package at its top level
    (the candidate-generation facade), so a module-level import here would
    close an import cycle whenever ``repro.retrieval`` loads first."""
    from ..matching.bm25 import BM25Index

    return BM25Index


class BM25Retriever(BaseRetriever):
    """BM25 inverted-index retrieval over id-keyed token sequences.

    Args:
        k1 / b: BM25 parameters, forwarded to the index.
    """

    backend = "bm25"

    def __init__(self, k1: float = 1.5, b: float = 0.75):
        self._index = _bm25_index_class()(k1=k1, b=b)
        self._queries = 0
        self._scored = 0
        self._fitted = False

    def fit(self, ids: Sequence, data: Sequence) -> "BM25Retriever":
        """Index an id-aligned collection of token sequences."""
        if len(ids) != len(data):
            raise DataError(f"{len(ids)} ids for {len(data)} token sequences")
        self._index = type(self._index)(k1=self._index.k1, b=self._index.b)
        self._index.fit(dict(zip(ids, (list(tokens) for tokens in data))))
        self._queries = 0
        self._scored = 0
        self._fitted = True
        return self

    def add(self, ids: Sequence, data: Sequence) -> "BM25Retriever":
        """Extend the index with new documents, refit-identically.

        Swaps in :meth:`BM25Index.extended`, which recomputes the corpus
        statistics (idf, average length, every norm) over the grown
        collection — scores and rankings match a fresh fit of the
        concatenated collection exactly.

        Raises:
            DataError: On a count mismatch, a duplicate id, or an index
                rehydrated from a state without raw document lengths
                (pre-``add`` snapshots) — callers should refit then.
        """
        self._require_fitted(self._fitted)
        if len(ids) != len(data):
            raise DataError(f"{len(ids)} ids for {len(data)} token sequences")
        if ids:
            self._index = self._index.extended(
                dict(zip(ids, (list(tokens) for tokens in data)))
            )
        return self

    def retrieve(self, query: Any, top_k: int = 10) -> list[tuple[Any, float]]:
        """Top-k over the query terms' postings; zero-score docs absent."""
        self._require_fitted(self._fitted)
        tokens = list(query)
        # One postings walk; the touched-position count is the work metric
        # (documents sharing no term are never scored at all).
        accumulated = self._index._accumulate(tokens)
        self._queries += 1
        self._scored += len(accumulated)
        best = sorted(accumulated.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
        return [(self._index._doc_ids[position], score) for position, score in best]

    def stats(self) -> RetrieverStats:
        return RetrieverStats(
            backend=self.backend,
            size=len(self._index) if self._fitted else 0,
            queries=self._queries,
            candidates_scored=self._scored,
            extra={"k1": self._index.k1, "b": self._index.b},
        )

    def to_state(self) -> dict[str, Any]:
        self._require_fitted(self._fitted)
        return {"backend": self.backend, "index": self._index.to_state()}

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "BM25Retriever":
        """Rehydrate a fitted adapter from :meth:`to_state` output.

        Raises:
            DataError: On a wrong backend tag or malformed index state.
        """
        check_state_backend(state, cls.backend)
        try:
            inner = state["index"]
        except (KeyError, TypeError) as error:
            raise DataError(f"malformed BM25 retriever state: {error}") from error
        retriever = cls()
        retriever._index = _bm25_index_class().from_state(inner)
        retriever._fitted = True
        return retriever
