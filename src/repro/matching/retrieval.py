"""Retrieval-then-verify candidate generation for matching (Section 6).

At Alibaba scale nobody scores every (concept, item) pair with a deep
model: a cheap first stage proposes top candidates per concept and only
those reach the matcher.  :class:`CandidateGenerator` is that first stage
over a catalog's titles, in one of three modes:

- ``"bm25"`` — the lexical inverted index (:class:`~.bm25.BM25Index`;
  semantic drift is its known failure mode: "mid-autumn festival gifts"
  never mentions moon cakes);
- ``"dense"`` — an exact index over a vector-capable matcher's doc
  embeddings (:class:`~repro.retrieval.dense.BruteForceDense`), which
  bridges drift but can miss exact lexical pins;
- ``"hybrid"`` — both arms fused with Reciprocal Rank Fusion
  (:func:`~repro.retrieval.fusion.rrf_fuse`).

The serving pools (``ServiceConfig(retriever=...)``) build the same first
stage from the same three calls.  The evaluation the paper's deployment
story implies is candidate *recall* (:func:`retrieval_recall`): the
fraction of truly matching items that survive the retrieval cut —
anything lost here is unrecoverable downstream.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigError, DataError
from ..retrieval import DEFAULT_RRF_K, BruteForceDense, rrf_fuse
from ..synth.items import SynthItem
from .base import NeuralMatcher
from .bm25 import BM25Index
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

    Holds a :class:`~.bm25.BM25Index` over the catalog's titles (modes
    ``"bm25"`` and ``"hybrid"``) and a
    :class:`~repro.retrieval.dense.BruteForceDense` over their embeddings
    (modes ``"dense"`` and ``"hybrid"``), and answers
    ``candidates(query_tokens, k)`` with (item, score) pairs — the shape
    :func:`retrieval_recall` consumes.

    Args:
        retriever: ``"bm25"``, ``"dense"``, or ``"hybrid"``.
        matcher: A vector-capable matcher (``dense_vectors = True``)
            supplying ``doc_vector`` (fit time) and ``query_vector``
            (query time).  Required for dense and hybrid modes.
        rrf_k: Reciprocal Rank Fusion constant (hybrid mode).
        weights: (dense, lexical) RRF arm weights (hybrid mode).
        k1 / b: BM25 parameters for the lexical arm.

    Raises:
        ConfigError: On an unknown mode, a dense/hybrid mode without a
            vector-capable matcher, or (hybrid mode) a non-positive
            ``rrf_k`` or other than two weights.
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
        if retriever != "bm25":
            self._matcher = require_dense_capable(
                matcher, f"retriever mode {retriever!r}"
            )
        if retriever == "hybrid" and rrf_k <= 0:
            raise ConfigError(f"rrf_k must be positive, got {rrf_k}")
        if retriever == "hybrid" and len(tuple(weights)) != 2:
            raise ConfigError(
                f"hybrid weights must be (dense, lexical), got {tuple(weights)!r}"
            )
        self.rrf_k = rrf_k
        self.weights = tuple(float(weight) for weight in weights)
        self._index = BM25Index(k1=k1, b=b) if retriever != "dense" else None
        self._dense = BruteForceDense() if retriever != "bm25" else None
        self._items: dict[int, SynthItem] = {}

    def fit(self, items: Sequence[SynthItem]) -> "CandidateGenerator":
        """Index a catalog by item title (titles embedded for dense arms).

        A refit replaces the previous catalog wholesale: the item map and
        the indexes are rebuilt from scratch, so a smaller refit can never
        serve candidates left over from a larger earlier fit.
        """
        if not items:
            raise DataError("candidate generator needs at least one item")
        self._items = {item.index: item for item in items}
        catalog = list(self._items.values())
        if self._index is not None:
            self._index.fit({item.index: item.title_tokens for item in catalog})
        if self._dense is not None:
            self._dense.fit(
                [item.index for item in catalog],
                [self._matcher.doc_vector(item.title_tokens) for item in catalog],
            )
        return self

    def candidates(
        self, query_tokens: Sequence[str], k: int = 50
    ) -> list[tuple[SynthItem, float]]:
        """The ``k`` best-matching (item, score) pairs, best first.

        Scores are mode-native (BM25 mass, cosine, or fused RRF mass) —
        comparable within one generator, not across modes.  In hybrid
        mode each arm retrieves ``k`` before fusion.

        Raises:
            NotFittedError: Before :meth:`fit`.
        """
        if self.retriever == "bm25":
            ranked = self._index.top_k(query_tokens, k)
        else:
            dense = self._dense.retrieve(self._matcher.query_vector(query_tokens), k)
            if self.retriever == "dense":
                ranked = dense
            else:
                ranked = rrf_fuse(
                    [dense, self._index.top_k(query_tokens, k)],
                    k=self.rrf_k,
                    weights=self.weights,
                )[:k]
        return [(self._items[index], score) for index, score in ranked]


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
