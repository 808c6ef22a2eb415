"""Shared plumbing for neural matching models."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..errors import DataError, NotFittedError
from ..ml import Embedding, Module
from ..ml.inference import stable_sigmoid
from ..ml.tensor import Tensor, no_grad
from ..nlp.vocab import Vocab
from ..utils.rng import spawn_rng
from .dataset import MatchingExample, pair_from_texts


def matching_vocab(examples: Sequence[MatchingExample]) -> Vocab:
    """Vocabulary over concept and title tokens of a pair collection."""
    sentences = []
    for example in examples:
        sentences.append(list(example.concept.tokens))
        sentences.append(list(example.item.title_tokens))
    return Vocab.from_corpus(sentences)


class NeuralMatcher(Module):
    """Base class: shared embedding table and the scoring interface.

    Args:
        vocab: Token vocabulary covering both sides.
        dim: Word-embedding width.
        seed: Weight-init seed.
        pretrained: Optional pretrained embedding matrix.
        name: RNG stream name (per-subclass).
    """

    #: Whether this matcher implements the functional batched inference
    #: path (:meth:`encode_query`/:meth:`encode_doc`/:meth:`_pool_logits`).
    #: Matchers without one still serve :meth:`score_pool` through the
    #: per-pair fallback; the serving layer uses the flag to decide
    #: whether doc-side encodings are worth caching.
    fast_path = False

    #: Whether this matcher exposes flat dense vectors
    #: (:meth:`query_vector`/:meth:`doc_vector`) usable as retrieval
    #: embeddings.  Interaction-heavy matchers score pairs jointly and
    #: have no meaningful single-side vector; dense and hybrid candidate
    #: generation (:mod:`repro.retrieval`) is gated on this flag.
    dense_vectors = False

    def __init__(self, vocab: Vocab, dim: int, seed: int, name: str,
                 pretrained: np.ndarray | None = None):
        super().__init__()
        self.vocab = vocab
        self.dim = dim
        self.rng = spawn_rng(seed, "matcher", name)
        self.embedding = Embedding(len(vocab), dim, self.rng,
                                   pretrained=pretrained)
        self._fitted = False

    def _token_ids(self, tokens: Sequence[str]) -> np.ndarray:
        """Vocabulary ids of a non-empty token sequence."""
        if not tokens:
            raise DataError("cannot embed an empty sequence")
        return np.asarray(self.vocab.ids(list(tokens)))

    def _embed(self, tokens: Sequence[str]) -> Tensor:
        """(1, T, dim) embeddings of a token sequence."""
        return self.embedding(self._token_ids(tokens)[None, :])

    def logit(self, example: MatchingExample) -> Tensor:
        raise NotImplementedError

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} has not been trained")

    def score_pairs(self, examples: Sequence[MatchingExample]) -> np.ndarray:
        """Match probabilities for a batch of pairs (no grad)."""
        self._require_fitted()
        with no_grad():
            logits = np.asarray([self.logit(e).item() for e in examples])
        return stable_sigmoid(logits)

    def score_text(self, query_tokens: Sequence[str],
                   title_tokens: Sequence[str]) -> float:
        """Match probability for one raw text pair (no grad).

        The serving re-rank entry point: no ground-truth
        :class:`~repro.synth.world.ConceptSpec`/item behind the pair, just
        two token sequences (query vs concept text, or concept vs title).
        """
        self._require_fitted()
        with no_grad():
            logit = self.logit(pair_from_texts(query_tokens,
                                               title_tokens)).item()
        return float(stable_sigmoid(logit))

    # -------------------------------------------------- batched inference
    def encode_query(self, query_tokens: Sequence[str]) -> Any:
        """Query-side encoding reused across a whole candidate pool.

        Fast-path matchers (``fast_path = True``) return an opaque state
        object holding everything on the query side that does not depend
        on the document — features, encoder output, attention
        projections.  The base class has no fast path and returns
        ``None``.
        """
        return None

    def encode_doc(self, doc_tokens: Sequence[str]) -> Any:
        """Doc-side encoding, cacheable by the serving layer.

        Legal to cache for as long as the weights do not change (the
        serving layer caches per frozen store + prepared model).  ``None``
        when the matcher has no fast path.
        """
        return None

    def _pool_logits(self, query_state: Any,
                     doc_encodings: Sequence[Any]) -> np.ndarray:
        """Fast-path logits for one query state against encoded docs."""
        raise NotImplementedError

    # ------------------------------------------------- dense retrieval side
    def query_vector(self, query_tokens: Sequence[str],
                     encoding: Any = None) -> np.ndarray | None:
        """Query-side embedding for dense first-stage retrieval.

        Vector-capable matchers (``dense_vectors = True``) return a flat
        float vector in the same space as :meth:`doc_vector`, so an ANN
        index over doc vectors ranks candidates by the matcher's own
        similarity.  ``encoding`` accepts an :meth:`encode_query` result
        for the same tokens, so a request that also reranks encodes its
        query once.  The base class returns ``None`` (no dense side).
        """
        return None

    def doc_vector(self, doc_tokens: Sequence[str],
                   encoding: Any = None) -> np.ndarray | None:
        """Doc-side embedding for dense first-stage retrieval.

        Args:
            doc_tokens: The document's token sequence.
            encoding: An optional :meth:`encode_doc` result for the same
                tokens; vector-capable matchers extract the vector from it
                instead of re-running the encoder (the serving layer feeds
                its frozen-catalog doc-encoding cache through here when
                building a dense index).

        ``None`` when the matcher has no dense side.
        """
        return None

    def score_pool(self, query_tokens: Sequence[str],
                   doc_token_lists: Sequence[Sequence[str]],
                   doc_encodings: Sequence[Any] | None = None,
                   query_state: Any = None) -> np.ndarray:
        """Match probabilities for one query against a candidate pool.

        Equivalent to ``[score_text(query_tokens, d) for d in docs]`` —
        the parity suite asserts identical scores — but the query side is
        encoded **once** and reused across all candidates, and fast-path
        matchers run entirely on tape-free numpy kernels
        (:mod:`repro.ml.inference`), skipping per-op graph-node
        allocation.  Matchers without a fast path fall back to per-pair
        ``logit`` under ``no_grad``.

        Args:
            query_tokens: The shared query side.
            doc_token_lists: One token sequence per pool candidate.
            doc_encodings: Optional pre-computed :meth:`encode_doc`
                results aligned with ``doc_token_lists`` (``None`` slots
                are encoded on the fly).  The serving layer passes its
                doc-side cache through here.
            query_state: Optional pre-computed :meth:`encode_query`
                result for ``query_tokens`` (encoded here when ``None``).
                The serving layer encodes each request's query once and
                passes it to every pool it scores.

        Returns:
            Probabilities, shape ``(len(doc_token_lists),)``.
        """
        self._require_fitted()
        docs = [list(tokens) for tokens in doc_token_lists]
        if not docs:
            return np.zeros(0)
        if not self.fast_path:
            with no_grad():
                logits = np.asarray([
                    self.logit(pair_from_texts(query_tokens, tokens)).item()
                    for tokens in docs
                ])
            return stable_sigmoid(logits)
        if query_state is None:
            query_state = self.encode_query(query_tokens)
        if doc_encodings is None:
            doc_encodings = [None] * len(docs)
        encoded = [
            encoding if encoding is not None else self.encode_doc(tokens)
            for tokens, encoding in zip(docs, doc_encodings)
        ]
        return stable_sigmoid(np.asarray(self._pool_logits(query_state,
                                                           encoded)))
