"""The retriever interface behind candidate generation.

AliCoCo serves retrieval-then-verify (Section 6): a cheap first stage
proposes candidates and only those reach the deep matcher.  This package
gives that first stage — lexical (BM25), dense (exact brute force), or a
hybrid fusing both — one small contract:

- ``fit(ids, data)`` indexes an id-keyed collection (token sequences for
  lexical backends, vectors for dense ones);
- ``add(ids, data)`` / ``extended(ids, data)`` grow a fitted index in
  place or into a new one, ranking exactly like a refit;
- ``retrieve(query, top_k)`` answers with the best ``(id, score)`` pairs;
- ``stats()`` reports what the index is and how much work queries do;
- ``to_state()`` / ``from_state()`` round-trip the *fitted* index through
  JSON so a snapshot warm start skips the build entirely.

Determinism contract: every backend breaks score ties by **fit order**
(the position an id was given to ``fit``), so two indexes fitted from the
same inputs — or one fitted and one rehydrated — return bit-identical
rankings.  The benchmarks gate on this.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..errors import DataError, NotFittedError


@dataclass(frozen=True)
class RetrieverStats:
    """What a fitted retriever is and what its queries cost.

    Attributes:
        backend: Backend name (``"bruteforce"``, ``"bm25"``, ``"hybrid"``).
        size: Number of indexed documents.
        dim: Vector dimensionality (0 for lexical backends).
        queries: Queries answered since ``fit``.
        candidates_scored: Total documents actually scored across those
            queries (every document for the dense scan; only those
            sharing a term for BM25).
        extra: Backend-specific knobs and structure sizes.
    """

    backend: str
    size: int
    dim: int = 0
    queries: int = 0
    candidates_scored: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def scan_fraction(self) -> float:
        """Mean fraction of the collection scored per query (1.0 = linear)."""
        if not self.queries or not self.size:
            return 0.0
        return self.candidates_scored / (self.queries * self.size)


class BaseRetriever(ABC):
    """One first-stage candidate source over an id-keyed collection.

    Every backend grows without a refit: :meth:`add` extends an index in
    place, and :meth:`extended` grows a new one so readers pinned to the
    old index keep it (the generational serving tier publishes indexes
    this way — see :mod:`repro.kg.generations`).
    """

    #: Backend name used in stats and serialised state.
    backend = "base"

    @abstractmethod
    def fit(self, ids: Sequence, data: Sequence) -> "BaseRetriever":
        """Index a collection: one id per data element, aligned.

        Args:
            ids: Hashable document ids (JSON-serialisable for snapshots).
            data: Per-id payload — token sequences for lexical backends,
                vectors for dense ones.
        """

    @abstractmethod
    def retrieve(self, query: Any, top_k: int = 10) -> list[tuple[Any, float]]:
        """The best ``top_k`` (id, score) pairs, best first.

        Ties break by fit order; fewer than ``top_k`` pairs may come back
        (lexical backends only return nonzero-score documents).
        """

    @abstractmethod
    def add(self, ids: Sequence, data: Sequence) -> "BaseRetriever":
        """Extend a fitted index with new documents, preserving fit order.

        New ids take the positions after the existing collection, so the
        tie-break contract ("fit order") extends naturally: an index
        grown by ``add`` ranks exactly like one fitted from the
        concatenated collection.  Callers must not mutate an index other
        threads are reading — publish the new index :meth:`extended`
        returns instead.
        """

    def extended(self, ids: Sequence, data: Sequence) -> "BaseRetriever":
        """A new index: this one's documents followed by ``ids``/``data``.

        This index is left unchanged, so readers pinned to it keep
        retrieving from it; the result ranks as :meth:`add` on a copy
        would.  The default copies through ``from_state(to_state())``;
        backends that can share or cheaply copy their structure override
        it.
        """
        return type(self).from_state(self.to_state()).add(ids, data)

    @abstractmethod
    def stats(self) -> RetrieverStats:
        """Size, knobs, and per-query work counters."""

    @abstractmethod
    def to_state(self) -> dict[str, Any]:
        """The fitted index as a JSON-serialisable dict (snapshot payload)."""

    def __len__(self) -> int:
        return self.stats().size

    def _require_fitted(self, fitted: bool) -> None:
        if not fitted:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")


def check_state_backend(state: Mapping[str, Any], expected: str) -> None:
    """Reject a serialised index state written by a different backend.

    Raises:
        DataError: If the state's backend tag disagrees with ``expected``.
    """
    recorded = state.get("backend")
    if recorded != expected:
        raise DataError(
            f"retriever state holds a {recorded!r} index, expected {expected!r}"
        )
