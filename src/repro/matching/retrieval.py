"""Retrieval-then-verify candidate generation for matching (Section 6).

At Alibaba scale nobody scores every (concept, item) pair with a deep
model: a cheap first-stage retriever proposes top candidates per concept
and only those reach the matcher.  :class:`CandidateGenerator` provides
that first stage over the backends of :mod:`repro.retrieval`:

- ``"bm25"`` — the lexical inverted index (semantic drift is its known
  failure mode: "mid-autumn festival gifts" never mentions moon cakes);
- ``"dense"`` — an exact index over a vector-capable matcher's doc
  embeddings (:class:`~repro.retrieval.dense.BruteForceDense`), which
  bridges drift but can miss exact lexical pins;
- ``"hybrid"`` — both arms fused with Reciprocal Rank Fusion
  (:class:`~repro.retrieval.fusion.HybridRetriever`).

The evaluation the paper's deployment story implies is candidate
*recall* (:func:`retrieval_recall`): the fraction of truly matching
items that survive the retrieval cut — anything lost here is
unrecoverable downstream.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigError, DataError
from ..retrieval import (
    DEFAULT_RRF_K,
    BM25Retriever,
    BruteForceDense,
    HybridQuery,
    HybridRetriever,
)
from ..synth.items import SynthItem
from .base import NeuralMatcher
from .dataset import MatchingDataset

#: First-stage strategies accepted by :class:`CandidateGenerator`.
RETRIEVER_MODES = ("bm25", "dense", "hybrid")


def require_dense_capable(matcher, context: str) -> NeuralMatcher:
    """The matcher, checked to expose dense retrieval vectors.

    Raises:
        ConfigError: When ``matcher`` is absent or does not declare
            ``dense_vectors`` (interaction-style matchers have no flat
            single-side embedding to index).
    """
    if matcher is None:
        raise ConfigError(
            f"{context} needs a vector-capable matcher to embed documents; "
            "pass one (e.g. a trained DSSMMatcher)"
        )
    if not getattr(matcher, "dense_vectors", False):
        raise ConfigError(
            f"{context} needs a matcher with dense_vectors=True "
            f"(query_vector/doc_vector); {type(matcher).__name__} scores "
            "pairs jointly and has no single-side embedding"
        )
    return matcher


class CandidateGenerator:
    """First-stage item retrieval for a concept query.

    Fits one of the :mod:`repro.retrieval` backends over a catalog's
    titles and answers ``candidates(query_tokens, k)`` with (item, score)
    pairs — the shape :func:`retrieval_recall` and the serving pool
    builders consume.

    Args:
        retriever: ``"bm25"``, ``"dense"``, or ``"hybrid"``.
        matcher: A vector-capable matcher (``dense_vectors = True``)
            supplying ``doc_vector`` (fit time) and ``query_vector``
            (query time).  Required for dense and hybrid modes.
        rrf_k: Reciprocal Rank Fusion constant (hybrid mode).
        weights: (dense, lexical) RRF arm weights (hybrid mode).
        k1 / b: BM25 parameters for the lexical arm.

    Raises:
        ConfigError: On an unknown mode, or a dense/hybrid mode without a
            vector-capable matcher.
    """

    def __init__(
        self,
        retriever: str = "bm25",
        *,
        matcher: NeuralMatcher | None = None,
        rrf_k: int = DEFAULT_RRF_K,
        weights: Sequence[float] = (1.0, 1.0),
        k1: float = 1.5,
        b: float = 0.75,
    ):
        if retriever not in RETRIEVER_MODES:
            expected = ", ".join(repr(mode) for mode in RETRIEVER_MODES)
            raise ConfigError(
                f"unknown retriever mode {retriever!r}; expected one of: {expected}"
            )
        self.retriever = retriever
        self._matcher = None
        if retriever == "bm25":
            self._backend = BM25Retriever(k1=k1, b=b)
        else:
            self._matcher = require_dense_capable(
                matcher, f"retriever mode {retriever!r}"
            )
            if retriever == "dense":
                self._backend = BruteForceDense()
            else:
                self._backend = HybridRetriever(
                    dense=BruteForceDense(),
                    lexical=BM25Retriever(k1=k1, b=b),
                    rrf_k=rrf_k,
                    weights=weights,
                )
        self._items: dict[int, SynthItem] = {}

    def fit(self, items: Sequence[SynthItem]) -> "CandidateGenerator":
        """Index a catalog by item title (titles embedded for dense arms).

        A refit replaces the previous catalog wholesale: the item map and
        the index are rebuilt from scratch, so a smaller refit can never
        serve candidates left over from a larger earlier fit.
        """
        if not items:
            raise DataError("candidate generator needs at least one item")
        self._items = {item.index: item for item in items}
        catalog = list(self._items.values())
        ids = [item.index for item in catalog]
        if self.retriever == "bm25":
            self._backend.fit(ids, [item.title_tokens for item in catalog])
        elif self.retriever == "dense":
            self._backend.fit(
                ids,
                [self._matcher.doc_vector(item.title_tokens) for item in catalog],
            )
        else:
            self._backend.fit(
                ids,
                [
                    (self._matcher.doc_vector(item.title_tokens), item.title_tokens)
                    for item in catalog
                ],
            )
        return self

    def candidates(
        self, query_tokens: Sequence[str], k: int = 50
    ) -> list[tuple[SynthItem, float]]:
        """The ``k`` best-matching (item, score) pairs, best first.

        Scores are backend-native (BM25 mass, cosine, or fused RRF mass)
        — comparable within one generator, not across modes.
        """
        if self.retriever == "bm25":
            ranked = self._backend.retrieve(query_tokens, k)
        elif self.retriever == "dense":
            ranked = self._backend.retrieve(
                self._matcher.query_vector(query_tokens), k
            )
        else:
            ranked = self._backend.retrieve(
                HybridQuery(
                    tokens=tuple(query_tokens),
                    vector=self._matcher.query_vector(query_tokens),
                ),
                k,
            )
        return [(self._items[index], score) for index, score in ranked]

    def stats(self):
        """The backend's work counters (:class:`~repro.retrieval.RetrieverStats`)."""
        return self._backend.stats()


def retrieval_recall(generator, dataset: MatchingDataset, k: int = 50) -> float:
    """Candidate recall of a generator on the dataset's test split.

    For each test concept, retrieve ``k`` candidate items and measure the
    fraction of oracle-positive items recovered; returns the mean over
    concepts.  This is the ceiling any downstream matcher can reach in a
    retrieval-then-verify pipeline.  ``generator`` is anything with a
    ``candidates(query_tokens, k)`` method — every
    :class:`CandidateGenerator` mode qualifies, which is how the benchmark
    compares BM25, dense, and hybrid first stages on equal footing.
    """
    if not dataset.test_by_concept:
        raise DataError("dataset has no per-concept test pools")
    recalls: list[float] = []
    for examples in dataset.test_by_concept.values():
        positives = {example.item.index for example in examples if example.label == 1}
        if not positives:
            continue
        retrieved = {
            item.index
            for item, _ in generator.candidates(examples[0].concept.tokens, k)
        }
        recalls.append(len(positives & retrieved) / len(positives))
    if not recalls:
        raise DataError("no test concept has positive examples")
    return sum(recalls) / len(recalls)
