"""Reciprocal Rank Fusion: one candidate list out of several ranked arms.

BM25 misses semantic drift ("mid-autumn festival gifts" never mentions
moon cakes); dense retrieval misses exact lexical pins (model numbers,
brand names).  RRF fuses their ranked lists without comparing their
incomparable scores: a document at rank ``r`` in an arm contributes
``weight / (k + r)`` (ranks start at 1, ``k = 60`` by default), and
documents are re-ranked by the summed contribution.  Only *ranks* cross
the fusion boundary, so any mix of arms composes.  The hybrid first
stage fuses ``[dense arm, lexical arm]`` in that order, both in
:class:`~repro.matching.retrieval.CandidateGenerator` and in the serving
pools.

Determinism: fused ties break by first appearance across the arm lists
(arm order, then rank) — stable under re-fits and snapshot warm starts
because each arm's own ranking is.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..errors import ConfigError

#: The RRF constant from the original Cormack et al. formulation; large
#: enough that depth-of-list matters more than exact rank near the top.
DEFAULT_RRF_K = 60


def rrf_fuse(
    rankings: Sequence[Sequence[tuple[Any, float]]],
    k: int = DEFAULT_RRF_K,
    weights: Sequence[float] | None = None,
) -> list[tuple[Any, float]]:
    """Fuse ranked (id, score) lists into one, best first.

    Args:
        rankings: One ranked list per arm (best first).  Empty lists are
            legal (that arm simply contributes nothing); a duplicate id
            within one arm counts once, at its best (first) rank.
        k: The RRF constant; higher flattens rank differences.
        weights: Per-arm multipliers, default all 1.0.

    Returns:
        (id, fused score) pairs sorted by score desc, first-appearance
        order on ties.

    Raises:
        ConfigError: If ``k`` is not positive or the weights count
            disagrees with the arm count.
    """
    if k <= 0:
        raise ConfigError(f"rrf k must be positive, got {k}")
    if weights is None:
        weights = [1.0] * len(rankings)
    if len(weights) != len(rankings):
        raise ConfigError(f"{len(weights)} weights for {len(rankings)} ranked lists")
    fused: dict[Any, float] = {}
    for ranking, weight in zip(rankings, weights):
        seen_in_arm: set = set()
        rank = 0
        for doc_id, _ in ranking:
            if doc_id in seen_in_arm:
                continue
            seen_in_arm.add(doc_id)
            rank += 1
            fused[doc_id] = fused.get(doc_id, 0.0) + weight / (k + rank)
    order = {doc_id: position for position, doc_id in enumerate(fused)}
    return sorted(fused.items(), key=lambda kv: (-kv[1], order[kv[0]]))
