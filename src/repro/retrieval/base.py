"""What the dense index reports and how its serialised state is tagged.

AliCoCo serves retrieval-then-verify (Section 6): a cheap first stage
proposes candidates and only those reach the deep matcher.  The first
stage is three primitives — :class:`~repro.matching.bm25.BM25Index`,
:class:`~repro.retrieval.dense.BruteForceDense` and
:func:`~repro.retrieval.fusion.rrf_fuse` — called directly by
:class:`~repro.matching.retrieval.CandidateGenerator` and by the serving
pools.  This module holds what the dense index shares with its callers:

- :class:`RetrieverStats`, its size and per-query work counters;
- :func:`check_state_backend`, the backend-tag check a snapshot's index
  state passes before it is rehydrated.

Determinism contract: the dense index breaks score ties by **fit order**
(the position an id was given to ``fit``), so two indexes fitted from the
same inputs — or one fitted and one rehydrated — return bit-identical
rankings.  The benchmarks gate on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import DataError


@dataclass(frozen=True)
class RetrieverStats:
    """What a fitted index is and what its queries cost.

    Attributes:
        backend: Backend name (``"bruteforce"``).
        size: Number of indexed documents.
        dim: Vector dimensionality.
        queries: Queries answered since ``fit``.
        candidates_scored: Total documents actually scored across those
            queries (every document for the dense scan).
        extra: Backend-specific knobs.
    """

    backend: str
    size: int
    dim: int = 0
    queries: int = 0
    candidates_scored: int = 0
    extra: dict[str, Any] = field(default_factory=dict)


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
