"""The first stage's dense index and fusion (Section 6).

The paper matches items against a BM25 and DSSM first stage.  That stage
is three primitives, called directly by its two users —
:class:`~repro.matching.retrieval.CandidateGenerator` offline and the
serving pools (``ServiceConfig(retriever=...)``) online:

- :class:`~repro.matching.bm25.BM25Index` — the lexical inverted index;
- :class:`BruteForceDense` — exact dense scoring, the one dense index;
- :func:`rrf_fuse` — Reciprocal Rank Fusion of the two arms' rankings.

This package holds the last two.  Both break ties deterministically by
fit order, and a fitted dense index round-trips through JSON state
(:func:`dense_index_from_state`) so a snapshot warm start skips the fit
and retrieves bit-identically.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..errors import DataError
from .base import RetrieverStats, check_state_backend
from .dense import BruteForceDense
from .fusion import DEFAULT_RRF_K, rrf_fuse

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


__all__ = [
    "RetrieverStats",
    "BruteForceDense",
    "rrf_fuse",
    "DEFAULT_RRF_K",
    "DENSE_BACKENDS",
    "dense_index_from_state",
    "check_state_backend",
]
