"""Seeded request streams.

The workload seed drives only what is generated here: which keys are
hot, which texts the tail asks for, and the order of requests.  The net,
the models and the snapshot are built from fixed seeds, so two runs with
different workload seeds do identical set-up work and differ only in
traffic.  A request is ``(endpoint, args)``, the form ``batch`` takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: Zipf exponent of the hot-key popularity curve.
ZIPF_EXPONENT = 1.1

#: Share of each endpoint in one tail cycle (point lookups are split
#: evenly over the four graph endpoints).  The cheap requests (search,
#: point lookups, and tag, which a cluster answers from its routed
#: shard's own cache) stay at 35% or less, so the median latency lies
#: inside the reranked requests' mode instead of on its edge.
TAIL_MIX = {
    "search_reranked": 0.50,
    "search": 0.15,
    "items_for_concept_reranked": 0.15,
    "tag": 0.10,
    "point": 0.10,
}

Request = tuple[str, tuple]


@dataclass(frozen=True)
class Catalog:
    """What traffic may ask about, read once from a built net."""

    concepts: tuple[tuple[str, str], ...]  # (node id, text)
    items: tuple[str, ...]
    primitives: tuple[str, ...]
    words: tuple[str, ...]  # item-title vocabulary, sorted

    @classmethod
    def of(cls, built) -> "Catalog":
        store = built.store
        items = tuple(built.item_ids[index] for index in sorted(built.item_ids))
        words = sorted(
            {word for item_id in items for word in store.get(item_id).title.split()}
        )
        return cls(
            concepts=tuple(
                (built.concept_ids[spec.text], spec.text) for spec in built.concepts
            ),
            items=items,
            primitives=tuple(built.primitive_ids.values()),
            words=tuple(words),
        )


def _texts(catalog: Catalog, rng: np.random.Generator, count: int) -> list[str]:
    """``count`` distinct short queries: a concept's text plus one title
    word, the shape of a refined search."""
    seen: set[str] = set()
    texts = []
    limit = len(catalog.concepts) * len(catalog.words)
    while len(texts) < min(count, limit):
        _, text = catalog.concepts[rng.integers(len(catalog.concepts))]
        query = f"{text} {catalog.words[rng.integers(len(catalog.words))]}"
        if query not in seen:
            seen.add(query)
            texts.append(query)
    return texts


def _pick(rng: np.random.Generator, pool: list, count: int) -> list:
    """``count`` distinct entries of ``pool`` (all of it when shorter)."""
    order = rng.permutation(len(pool))[:count]
    return [pool[index] for index in order]


def hot_keys(catalog: Catalog, rng: np.random.Generator, per_endpoint: int) -> list:
    """A few hundred distinct requests, ``per_endpoint`` on each of the
    eight endpoints, in popularity order for :func:`zipf_indices`.

    The endpoints take turns down the ranking, so each gets the same
    share of the traffic whatever the seed; the seed picks the concepts,
    items and primitives each endpoint asks about.  With ranks dealt at
    random, the seed would decide whether the most popular keys are
    reranked searches or point lookups, and so the mean read cost.
    """
    concepts = _pick(rng, list(catalog.concepts), per_endpoint)
    texts = [text for _, text in concepts]
    per_endpoint_keys: list[list[Request]] = [
        [("items_for_concept", (cid, 10)) for cid, _ in concepts],
        [
            ("concepts_for_item", (item,))
            for item in _pick(rng, list(catalog.items), per_endpoint)
        ],
        [("interpretation", (cid,)) for cid, _ in concepts],
        [
            ("hypernyms", (primitive, True))
            for primitive in _pick(rng, list(catalog.primitives), per_endpoint)
        ],
        [("search", (text,)) for text in texts],
        [("tag", (text,)) for text in texts],
        [("items_for_concept_reranked", (cid, 10)) for cid, _ in concepts],
        [("search_reranked", (text,)) for text in texts],
    ]
    return [key for rank in zip(*per_endpoint_keys) for key in rank]


def tail_cycle(catalog: Catalog, rng: np.random.Generator, length: int) -> list:
    """``length`` distinct requests in the :data:`TAIL_MIX`, shuffled.

    Replayed in a loop, every key recurs only after ``length - 1`` other
    keys, so with ``length`` above the result cache's capacity an LRU
    cache never holds a key when it comes round again.
    """
    counts = {name: int(length * share) for name, share in TAIL_MIX.items()}
    texts = _texts(
        catalog, rng, counts["search_reranked"] + counts["search"] + counts["tag"]
    )
    cycle: list[Request] = []
    for endpoint in ("search_reranked", "search", "tag"):
        cycle += [(endpoint, (text,)) for text in texts[: counts[endpoint]]]
        texts = texts[counts[endpoint] :]
    ranked = [(cid, top_k) for cid, _ in catalog.concepts for top_k in range(5, 11)]
    cycle += [
        ("items_for_concept_reranked", key)
        for key in _pick(rng, ranked, counts["items_for_concept_reranked"])
    ]
    point = counts["point"] // 4
    cycle += [("items_for_concept", key) for key in _pick(rng, ranked, point)]
    cycle += [
        ("concepts_for_item", (item,))
        for item in _pick(rng, list(catalog.items), point)
    ]
    cycle += [
        ("interpretation", (cid,))
        for cid, _ in _pick(rng, list(catalog.concepts), point)
    ]
    cycle += [
        ("hypernyms", (primitive, transitive))
        for primitive, transitive in _pick(
            rng,
            [(p, t) for p in catalog.primitives for t in (False, True)],
            point,
        )
    ]
    return [cycle[index] for index in rng.permutation(len(cycle))]


def zipf_indices(
    rng: np.random.Generator, n_keys: int, chunk: int = 65536
) -> Iterator[int]:
    """An endless stream of key indices, key ``i`` drawn with weight
    proportional to ``1 / (i + 1) ** ZIPF_EXPONENT``."""
    weights = 1.0 / np.arange(1, n_keys + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    while True:
        yield from rng.choice(n_keys, size=chunk, p=weights).tolist()


def cycle_indices(n_keys: int) -> Iterator[int]:
    """``0, 1, ..., n_keys - 1`` forever."""
    while True:
        yield from range(n_keys)
