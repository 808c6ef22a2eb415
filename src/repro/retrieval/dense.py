"""Exact dense retrieval: the one dense index.

:class:`BruteForceDense` scores a query against *every* indexed vector
of one packed float32 matrix — O(n·d) per query and exact.  Exactness
is what the serving tier needs: a cluster shard serves a
:meth:`~BruteForceDense.projected` subset of one global index and
answers exactly like a single service over the same store.  At the
catalog sizes served here (a few thousand items per shard) an
approximate index bought no speed either.

The module also owns the dense plumbing: float32 packing, cosine/inner-
product query preparation, base64 matrix (de)serialisation, and the
deterministic top-k selection (score desc, fit position asc) that makes
rankings reproducible across fits, warm starts, and projections.
"""

from __future__ import annotations

import base64
from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import DataError, NotFittedError
from .base import RetrieverStats, check_state_backend

#: Accepted similarity metrics ("cosine" normalises, "ip" does not).
METRICS = ("cosine", "ip")


def pack_vectors(vectors: Sequence, metric: str) -> np.ndarray:
    """Stack vectors into a C-contiguous float32 matrix.

    Cosine indexes store rows pre-normalised (zero vectors stay zero), so
    retrieval is a plain inner product either way.

    Raises:
        DataError: On an empty collection, ragged dims, or a bad metric.
    """
    if metric not in METRICS:
        raise DataError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if len(vectors) == 0:
        raise DataError("dense retriever needs at least one vector")
    try:
        matrix = np.ascontiguousarray(np.stack(vectors), dtype=np.float32)
    except ValueError as error:
        raise DataError(f"vectors do not stack into a matrix: {error}") from error
    if matrix.ndim != 2:
        raise DataError(f"vectors must be 1-d, got shape {matrix.shape}")
    if metric == "cosine":
        matrix = normalize_rows(matrix)
    return matrix


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalise rows in float32; zero rows pass through unchanged."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return (matrix / np.where(norms == 0.0, 1.0, norms)).astype(np.float32)


def prepare_query(vector: Any, dim: int, metric: str) -> np.ndarray:
    """Validate and (for cosine) normalise one query vector.

    Raises:
        DataError: On a shape mismatch with the index.
    """
    query = np.asarray(vector, dtype=np.float32).reshape(-1)
    if query.shape[0] != dim:
        raise DataError(f"query dim {query.shape[0]} != index dim {dim}")
    if metric == "cosine":
        norm = float(query @ query) ** 0.5
        if norm > 0.0:
            query = query / norm
    return query


def top_k_positions(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the best ``k`` scores, score desc / position asc.

    A score's position is its row's fit position, the deterministic
    tie-break.  Selection goes through ``argpartition`` first so the
    common case never sorts the whole collection.
    """
    n = scores.shape[0]
    k = min(k, n)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    if k < n > 512:
        # argpartition narrows to ~k before the tie-breaking sort; below
        # ~512 elements its setup overhead loses to sorting outright.
        # The partition splits boundary-score ties arbitrarily, so the
        # tie group at the cut is re-gathered and trimmed by position —
        # without this, which tied document survives the cut would
        # depend on partition internals, not fit order.
        candidates = np.argpartition(-scores, k - 1)[:k]
        boundary = scores[candidates].min()
        spill = np.count_nonzero(scores == boundary) - np.count_nonzero(
            scores[candidates] == boundary
        )
        if spill:
            # Rare: boundary-score documents exist outside the partition.
            # Re-gather the whole tie group and keep its lowest positions.
            above = np.flatnonzero(scores > boundary)
            ties = np.flatnonzero(scores == boundary)
            candidates = np.concatenate([above, ties[: k - above.size]])
        order = np.lexsort((candidates, -scores[candidates]))
        return candidates[order]
    return np.argsort(-scores, kind="stable")[:k]


def matrix_to_state(matrix: np.ndarray) -> dict[str, Any]:
    """A float32 matrix as base64 little-endian bytes + shape."""
    data = np.ascontiguousarray(matrix, dtype="<f4")
    return {
        "shape": list(data.shape),
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def matrix_from_state(state: Mapping[str, Any]) -> np.ndarray:
    """Rehydrate :func:`matrix_to_state` output, bit-exactly.

    Raises:
        DataError: On missing fields, bad base64, or a count/shape clash.
    """
    try:
        shape = tuple(int(size) for size in state["shape"])
        raw = base64.b64decode(state["data"])
        matrix = np.frombuffer(raw, dtype="<f4").reshape(shape)
    except (KeyError, TypeError, ValueError) as error:
        raise DataError(f"malformed matrix state: {error}") from error
    return np.ascontiguousarray(matrix, dtype=np.float32)


class BruteForceDense:
    """Exact inner-product / cosine retrieval over a packed matrix.

    Grows without a refit: :meth:`extended` and :meth:`projected` build
    new indexes, so readers pinned to this one keep it (the generational
    serving tier publishes indexes this way).

    Args:
        metric: ``"cosine"`` (rows and queries normalised) or ``"ip"``.
    """

    #: Backend name used in stats and serialised state.
    backend = "bruteforce"

    def __init__(self, metric: str = "cosine"):
        if metric not in METRICS:
            raise DataError(f"unknown metric {metric!r}; expected one of {METRICS}")
        self.metric = metric
        self._ids: list = []
        self._matrix = np.empty((0, 0), dtype=np.float32)
        self._queries = 0
        self._scored = 0
        self._fitted = False

    def fit(self, ids: Sequence, data: Sequence) -> "BruteForceDense":
        """Index an id-aligned vector collection."""
        if len(ids) != len(data):
            raise DataError(f"{len(ids)} ids for {len(data)} vectors")
        self._matrix = pack_vectors(data, self.metric)
        self._ids = list(ids)
        self._queries = 0
        self._scored = 0
        self._fitted = True
        return self

    def extended(self, ids: Sequence, data: Sequence) -> "BruteForceDense":
        """A new index: this one's rows followed by ``data``'s.

        Packing normalises per row, so the result holds the same matrix
        (and fit positions) as a fit over the concatenated collection and
        retrieves exactly like one; nothing goes through
        :meth:`to_state`.  This index is left unchanged, so readers
        pinned to it keep it.  With no ids, it is returned as is.

        Raises:
            DataError: On a count or dimension mismatch.
        """
        self._require_fitted()
        if len(ids) != len(data):
            raise DataError(f"{len(ids)} ids for {len(data)} vectors")
        if not ids:
            return self
        return self.concatenated(type(self)(metric=self.metric).fit(ids, data))

    def concatenated(self, other: "BruteForceDense") -> "BruteForceDense":
        """A new index: this one's rows followed by ``other``'s, as stored.

        Rows are taken as packed, never re-normalised, so appending a
        projection of a global index's new rows to a projection of its
        old ones gives the projection of the grown index bit for bit.
        Both indexes are left unchanged.

        Raises:
            DataError: On a metric or dimension mismatch.
        """
        self._require_fitted()
        other._require_fitted()
        if other.metric != self.metric:
            raise DataError(
                f"cannot append {other.metric} rows to a {self.metric} index"
            )
        if other._matrix.shape[1] != self._matrix.shape[1]:
            raise DataError(
                f"new vectors have dim {other._matrix.shape[1]}, index has "
                f"{self._matrix.shape[1]}"
            )
        grown = type(self)(metric=self.metric)
        grown._matrix = np.ascontiguousarray(np.vstack([self._matrix, other._matrix]))
        grown._ids = self._ids + other._ids
        grown._fitted = True
        return grown

    def projected(self, ids: Sequence) -> "BruteForceDense | None":
        """A new index holding this one's rows for ``ids``, in that order.

        Rows are selected as stored (already normalised for cosine), so
        the projection equals a fit over the selected vectors and
        retrieves exactly like one; nothing goes through
        :meth:`to_state`.  This index is left unchanged.  Returns
        ``None`` when ``ids`` is empty.

        Raises:
            DataError: If an id is not in this index.
        """
        self._require_fitted()
        if not ids:
            return None
        row_of = {doc_id: row for row, doc_id in enumerate(self._ids)}
        try:
            rows = [row_of[doc_id] for doc_id in ids]
        except KeyError as error:
            raise DataError(f"cannot project unknown id {error.args[0]!r}") from None
        projection = type(self)(metric=self.metric)
        projection._matrix = self._matrix[rows]
        projection._ids = list(ids)
        projection._fitted = True
        return projection

    def retrieve(self, query: Any, top_k: int = 10) -> list[tuple[Any, float]]:
        """Exact top-k by the inner product with every row."""
        self._require_fitted()
        vector = prepare_query(query, self._matrix.shape[1], self.metric)
        # Row by row, not one BLAS matrix-vector product: gemv rounds a
        # row's dot product differently by its place in the matrix, so a
        # cluster shard's projection would score a document some ulps off
        # the global index and break ties the other way.
        scores = np.einsum("ij,j->i", self._matrix, vector)
        self._queries += 1
        self._scored += scores.shape[0]
        best = top_k_positions(scores, top_k)
        ids = self._ids
        return list(zip(map(ids.__getitem__, best.tolist()), scores[best].tolist()))

    def stats(self) -> RetrieverStats:
        """Size, metric, and per-query work counters."""
        return RetrieverStats(
            backend=self.backend,
            size=len(self._ids),
            dim=int(self._matrix.shape[1]) if self._fitted else 0,
            queries=self._queries,
            candidates_scored=self._scored,
            extra={"metric": self.metric},
        )

    @property
    def doc_ids(self) -> tuple:
        """Document ids in row (fit) order (read-only)."""
        return tuple(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")

    def to_state(self) -> dict[str, Any]:
        """The fitted index as a JSON-serialisable dict (snapshot payload)."""
        self._require_fitted()
        return {
            "backend": self.backend,
            "metric": self.metric,
            "ids": list(self._ids),
            "matrix": matrix_to_state(self._matrix),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "BruteForceDense":
        """Rehydrate a fitted index; retrieval is bit-identical to the fit.

        Raises:
            DataError: On a wrong backend tag or malformed fields.
        """
        check_state_backend(state, cls.backend)
        try:
            index = cls(metric=str(state["metric"]))
            index._ids = list(state["ids"])
            index._matrix = matrix_from_state(state["matrix"])
        except KeyError as error:
            raise DataError(f"malformed dense index state: {error}") from error
        if len(index._ids) != index._matrix.shape[0]:
            raise DataError(
                f"dense index state has {len(index._ids)} ids for "
                f"{index._matrix.shape[0]} rows"
            )
        index._fitted = True
        return index
