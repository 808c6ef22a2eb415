"""First-stage retrieval behind one small interface (Section 6).

The paper matches items against a BM25 and DSSM first stage; this
package serves that stage:

- :class:`BruteForceDense` — exact dense scoring, the one dense index;
- :class:`BM25Retriever` — the existing inverted index, adapted;
- :class:`HybridRetriever` — dense + BM25 fused with Reciprocal Rank
  Fusion (:func:`rrf_fuse`).

All share :class:`BaseRetriever` (``fit`` / ``add`` / ``retrieve`` /
``stats`` / ``to_state``), deterministic fit-order tie-breaking, and JSON
state round-trips so snapshots warm-start a fitted index bit-identically.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..errors import DataError
from .base import BaseRetriever, RetrieverStats, check_state_backend
from .dense import BruteForceDense
from .fusion import DEFAULT_RRF_K, HybridQuery, HybridRetriever, rrf_fuse
from .lexical import BM25Retriever

#: Dense backend name -> class: the tag serialised dense states carry.
DENSE_BACKENDS: dict[str, type[BruteForceDense]] = {
    BruteForceDense.backend: BruteForceDense,
}


def dense_index_from_state(state: Mapping[str, Any]) -> BruteForceDense:
    """Rehydrate a dense index from its serialised state tag.

    Raises:
        DataError: On an unknown or missing backend tag.
    """
    backend = state.get("backend") if isinstance(state, Mapping) else None
    cls = DENSE_BACKENDS.get(backend)
    if cls is None:
        known = ", ".join(sorted(DENSE_BACKENDS))
        raise DataError(
            f"retriever state has unknown backend {backend!r}; "
            f"expected one of: {known}"
        )
    return cls.from_state(state)


def retriever_from_state(state: Mapping[str, Any]) -> BaseRetriever:
    """Rehydrate *any* retriever (dense, lexical, or hybrid) from state."""
    backend = state.get("backend") if isinstance(state, Mapping) else None
    if backend == BM25Retriever.backend:
        return BM25Retriever.from_state(state)
    if backend == HybridRetriever.backend:
        return HybridRetriever.from_state(state)
    return dense_index_from_state(state)


__all__ = [
    "BaseRetriever",
    "RetrieverStats",
    "BruteForceDense",
    "BM25Retriever",
    "HybridRetriever",
    "HybridQuery",
    "rrf_fuse",
    "DEFAULT_RRF_K",
    "DENSE_BACKENDS",
    "dense_index_from_state",
    "retriever_from_state",
    "check_state_backend",
]
