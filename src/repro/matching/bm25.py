"""BM25 lexical matching (first row of Table 6) and retrieval.

Purely term-based: it cannot bridge semantic drift ("mid-autumn festival
gifts" vs "moon cakes"), which is exactly why the paper includes it as the
floor baseline.  Two faces of the same scoring function live here:

- :class:`BM25Matcher` — the Table 6 *pair scorer* (score one query
  against one given title);
- :class:`BM25Index` — a *retriever* with a real inverted index: fit once
  over a document collection, then ``top_k(query_tokens)`` walks only the
  postings of the query terms instead of scoring every document.  This is
  the candidate-generation shape the paper uses before deep matching
  (Section 6 retrieves candidates, then verifies).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..errors import DataError, NotFittedError
from .dataset import MatchingExample

#: IDF fallback for query terms unseen at fit time.
_UNSEEN_IDF = math.log(2.0)


def _idf_table(document_frequency: Mapping[str, int],
               n_docs: int) -> dict[str, float]:
    return {
        term: math.log(1.0 + (n_docs - freq + 0.5) / (freq + 0.5))
        for term, freq in document_frequency.items()}


class BM25Matcher:
    """Okapi BM25 over item titles.

    Args:
        k1: Term-frequency saturation.
        b: Length normalisation.
    """

    def __init__(self, k1: float = 1.5, b: float = 0.75):
        self.k1 = k1
        self.b = b
        self._idf: dict[str, float] = {}
        self._average_length = 0.0
        # token tuple -> (term counts, length norm); filled at fit time so
        # score_pairs never recounts a title it has already seen.  Only
        # fit-time titles are memoised: scoring must not grow the cache,
        # or serving-style traffic over unseen titles leaks memory.
        self._doc_cache: dict[tuple[str, ...], tuple[Counter, float]] = {}
        self._fitted = False

    def fit(self, examples: Sequence[MatchingExample]) -> "BM25Matcher":
        """Collect document statistics from the training items' titles.

        Per-document term counts (and length norms) are precomputed here
        and cached, keyed by the title's token tuple.  The cache is
        bounded by the training set: titles first seen at ``score`` time
        are counted on the fly without being memoised.
        """
        titles = {example.item.index: example.item.title_tokens
                  for example in examples}
        if not titles:
            raise DataError("BM25 needs at least one title")
        document_frequency: Counter[str] = Counter()
        total_length = 0
        for tokens in titles.values():
            total_length += len(tokens)
            document_frequency.update(set(tokens))
        n_docs = len(titles)
        self._average_length = total_length / n_docs
        self._idf = _idf_table(document_frequency, n_docs)
        self._fitted = True
        self._doc_cache = {}
        for tokens in titles.values():
            key = tuple(tokens)
            if key not in self._doc_cache:
                self._doc_cache[key] = (Counter(key), self._length_norm(len(key)))
        return self

    def _length_norm(self, n_tokens: int) -> float:
        return self.k1 * (1.0 - self.b + self.b * n_tokens
                          / max(self._average_length, 1e-9))

    def _cached_doc(self, tokens: Sequence[str]) -> tuple[Counter, float]:
        """Term counts + length norm for a title.

        Fit-time titles come from the cache; unseen titles are counted on
        the fly and deliberately *not* memoised — ``score`` is called on
        arbitrary query traffic, and memoising every unseen title would
        grow the cache without bound.
        """
        key = tuple(tokens)
        cached = self._doc_cache.get(key)
        if cached is None:
            cached = (Counter(key), self._length_norm(len(key)))
        return cached

    def score(self, query_tokens: Sequence[str],
              title_tokens: Sequence[str]) -> float:
        """BM25 score of a query against one title."""
        if not self._fitted:
            raise NotFittedError("BM25 has not been fitted")
        counts, length_norm = self._cached_doc(title_tokens)
        score = 0.0
        for term in query_tokens:
            frequency = counts.get(term, 0)
            if frequency == 0:
                continue
            idf = self._idf.get(term, _UNSEEN_IDF)
            score += idf * frequency * (self.k1 + 1.0) / (frequency + length_norm)
        return score

    def score_pairs(self, examples: Sequence[MatchingExample]) -> np.ndarray:
        """Scores for a batch of (concept, item) pairs."""
        return np.asarray([
            self.score(example.concept.tokens, example.item.title_tokens)
            for example in examples])


class BM25Index:
    """Inverted-index BM25 retriever over an id-keyed document collection.

    Unlike :class:`BM25Matcher` (which scores a given pair), this answers
    "which documents best match this query" without touching documents
    that share no term with it: scoring walks only the postings lists of
    the query terms, so ``top_k`` is O(sum of query-term posting lengths),
    not O(collection).

    Args:
        k1: Term-frequency saturation.
        b: Length normalisation.
    """

    def __init__(self, k1: float = 1.5, b: float = 0.75):
        self.k1 = k1
        self.b = b
        self._doc_ids: list = []
        self._postings: dict[str, list[tuple[int, int]]] = {}
        self._norms: list[float] = []
        self._idf: dict[str, float] = {}
        # Raw token counts per document; needed by extended() to
        # recompute the corpus statistics.  None on an index rehydrated
        # from a pre-"lengths" snapshot state (read-only: refit to grow).
        self._lengths: list[int] | None = []
        self._fitted = False

    def fit(self, documents: Mapping[object, Sequence[str]]) -> "BM25Index":
        """Index a document collection (id -> token sequence).

        Document term counts are computed once here; queries never
        re-tokenise or re-count documents.
        """
        if not documents:
            raise DataError("BM25Index needs at least one document")
        self._doc_ids = list(documents)
        document_frequency: Counter[str] = Counter()
        term_counts: list[Counter] = []
        lengths: list[int] = []
        for tokens in documents.values():
            counts = Counter(tokens)
            term_counts.append(counts)
            lengths.append(len(tokens))
            document_frequency.update(counts.keys())
        n_docs = len(self._doc_ids)
        average_length = sum(lengths) / n_docs
        self._idf = _idf_table(document_frequency, n_docs)
        self._norms = [
            self.k1 * (1.0 - self.b + self.b * length
                       / max(average_length, 1e-9))
            for length in lengths]
        self._postings = {}
        for position, counts in enumerate(term_counts):
            for term, frequency in counts.items():
                self._postings.setdefault(term, []).append(
                    (position, frequency))
        self._lengths = lengths
        self._fitted = True
        return self

    def extended(
            self, documents: Mapping[object, Sequence[str]]) -> "BM25Index":
        """A new index over this one's documents followed by ``documents``.

        This index is left unchanged, so readers pinned to it keep
        scoring against it.  New documents take the positions after the
        existing collection.  Posting lists no new document touches are
        shared with this index; each touched term gets a new list holding
        the old entries plus the new ones.  The corpus statistics are
        recomputed over the grown collection: the df of each term is its
        postings length, idf is rebuilt, and *every* norm is re-derived
        from the stored raw lengths and the new average length.  The
        result is bit-identical to ``fit`` over the concatenated
        collection — scores, rankings and serialised state alike.  With
        no documents, this index itself is returned.

        Raises:
            NotFittedError: If the index has not been fitted.
            DataError: On a duplicate document id, or when the index was
                rehydrated from a state without raw document lengths
                (older snapshots) — refit from the full collection then.
        """
        if not self._fitted:
            raise NotFittedError("BM25Index has not been fitted")
        if not documents:
            return self
        if self._lengths is None:
            raise DataError(
                "BM25Index state lacks raw document lengths; "
                "incremental add is unavailable — refit instead")
        existing = set(self._doc_ids)
        clashes = [doc_id for doc_id in documents if doc_id in existing]
        if clashes:
            raise DataError(
                f"documents already indexed: {clashes[:3]!r}"
                f"{'...' if len(clashes) > 3 else ''}")
        grown = type(self)(k1=self.k1, b=self.b)
        grown._doc_ids = self._doc_ids + list(documents)
        grown._lengths = self._lengths + [
            len(tokens) for tokens in documents.values()]
        postings = dict(self._postings)
        touched: dict[str, list[tuple[int, int]]] = {}
        for position, tokens in enumerate(documents.values(),
                                          start=len(self._doc_ids)):
            for term, frequency in Counter(tokens).items():
                fresh = touched.get(term)
                if fresh is None:
                    fresh = touched[term] = list(postings.get(term, ()))
                    postings[term] = fresh
                fresh.append((position, frequency))
        grown._postings = postings
        # Global statistics shift with every addition (n_docs, average
        # length, per-term df), so idf and all norms are recomputed.
        n_docs = len(grown._doc_ids)
        average_length = sum(grown._lengths) / n_docs
        grown._idf = _idf_table(
            {term: len(entries) for term, entries in postings.items()},
            n_docs)
        grown._norms = [
            self.k1 * (1.0 - self.b + self.b * length
                       / max(average_length, 1e-9))
            for length in grown._lengths]
        grown._fitted = True
        return grown

    def projected(self, keep: Iterable) -> "BM25Index | None":
        """This index restricted to the documents whose ids are in ``keep``.

        The projection holds the kept documents' postings and length
        norms, in this index's order, but this index's idf table (shared:
        no index mutates its table after fitting), so every kept document
        scores exactly as it does here.  It holds no raw lengths, so it
        is read-only (:meth:`extended` raises).  Returns ``None`` when no
        document is kept.

        Raises:
            NotFittedError: If the index has not been fitted.
        """
        if not self._fitted:
            raise NotFittedError("BM25Index has not been fitted")
        keep = set(keep)
        kept = [position for position, doc_id in enumerate(self._doc_ids)
                if doc_id in keep]
        if not kept:
            return None
        remap = {old: new for new, old in enumerate(kept)}
        postings = {}
        for term, entries in self._postings.items():
            projected = [(remap[position], frequency)
                         for position, frequency in entries
                         if position in remap]
            if projected:
                postings[term] = projected
        index = type(self)(k1=self.k1, b=self.b)
        index._doc_ids = [self._doc_ids[position] for position in kept]
        index._postings = postings
        index._norms = [self._norms[position] for position in kept]
        index._idf = self._idf
        index._lengths = None
        index._fitted = True
        return index

    @property
    def doc_ids(self) -> tuple:
        """Document ids in position order (read-only)."""
        return tuple(self._doc_ids)

    def __len__(self) -> int:
        return len(self._doc_ids)

    def to_state(self) -> dict[str, Any]:
        """The fitted index as a JSON-serialisable dict.

        Everything ``fit`` computed — postings, norms, idf — is captured,
        so :meth:`from_state` rehydrates an identically-scoring index
        without re-tokenising or re-counting a single document.  Snapshot
        warm starts (see :mod:`repro.kg.serialize`) persist this next to
        the net.

        Raises:
            NotFittedError: If the index has not been fitted.
        """
        if not self._fitted:
            raise NotFittedError("BM25Index has not been fitted")
        return {
            "k1": self.k1,
            "b": self.b,
            "doc_ids": list(self._doc_ids),
            "postings": {term: [[position, frequency]
                                for position, frequency in postings]
                         for term, postings in self._postings.items()},
            "norms": list(self._norms),
            "idf": dict(self._idf),
            "lengths": list(self._lengths)
            if self._lengths is not None else None,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "BM25Index":
        """Rehydrate a fitted index from :meth:`to_state` output.

        Raises:
            DataError: If the state is missing fields or malformed.
        """
        try:
            index = cls(k1=float(state["k1"]), b=float(state["b"]))
            index._doc_ids = list(state["doc_ids"])
            index._postings = {
                term: [(int(position), int(frequency))
                       for position, frequency in postings]
                for term, postings in state["postings"].items()}
            index._norms = [float(norm) for norm in state["norms"]]
            index._idf = {term: float(value)
                          for term, value in state["idf"].items()}
            # Older snapshots predate the lengths field; such an index
            # rehydrates read-only (extended() raises, callers refit).
            lengths = state.get("lengths")
            index._lengths = ([int(length) for length in lengths]
                              if lengths is not None else None)
        except (KeyError, TypeError, ValueError) as error:
            raise DataError(f"malformed BM25 index state: {error}") from error
        index._fitted = True
        return index

    def _accumulate(self, query_tokens: Sequence[str]) -> dict[int, float]:
        """Position -> BM25 score over the query terms' postings only.

        The shared scoring kernel behind :meth:`scores` and :meth:`top_k`:
        walks each query term's postings list once, accumulating gains per
        document position.  Positions sharing no term with the query are
        absent (their score is exactly 0.0).
        """
        if not self._fitted:
            raise NotFittedError("BM25Index has not been fitted")
        accumulated: dict[int, float] = {}
        for term, query_frequency in Counter(query_tokens).items():
            postings = self._postings.get(term)
            if postings is None:
                continue
            idf = self._idf[term] * query_frequency
            for position, frequency in postings:
                gain = idf * frequency * (self.k1 + 1.0) \
                    / (frequency + self._norms[position])
                accumulated[position] = accumulated.get(position, 0.0) + gain
        return accumulated

    def scores(self, query_tokens: Sequence[str]) -> dict:
        """Nonzero BM25 scores: doc id -> score, via postings only.

        Documents sharing no term with the query are absent (their score
        is exactly 0.0).
        """
        return {self._doc_ids[position]: score
                for position, score in self._accumulate(query_tokens).items()}

    def score(self, query_tokens: Sequence[str], doc_id) -> float:
        """BM25 score of the query against one indexed document."""
        return self.scores(query_tokens).get(doc_id, 0.0)

    def top_k(self, query_tokens: Sequence[str], k: int = 10) -> list[tuple]:
        """The ``k`` best-matching (doc id, score) pairs, best first.

        Only documents with a nonzero score are returned (there may be
        fewer than ``k``).  Ties break by indexing order, which makes the
        ranking identical to an exhaustive argsort over all documents.
        """
        accumulated = self._accumulate(query_tokens)
        best = sorted(accumulated.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        return [(self._doc_ids[position], score) for position, score in best]
