"""Hash-sharding a frozen net for scatter-gather serving.

The paper's net answers Alibaba-scale traffic; one Python process with
one monolithic store does not.  This module is the *data* half of the
cluster tier (:mod:`repro.serving.cluster` is the query half): it splits
an :class:`~repro.kg.store.AliCoCoStore` into N self-contained shard
stores by node-id hash, so each shard can be served by an ordinary
:class:`~repro.serving.AliCoCoService` and queries either *route* to one
shard or *scatter* across all of them and merge.

**Placement rules** (:func:`split_store`):

- The taxonomy layers (``cls_``/``pc_`` — small, read on every
  interpretation/hypernym query) are **replicated** to every shard,
  together with every relation whose endpoints both lie in them.
- The big layers (``ec_`` concepts, ``item_`` items) are **partitioned**
  by :func:`shard_of` — a stable CRC32 of the node id, so placement is
  identical across processes and runs (Python's builtin ``hash`` is
  salted per process and would re-shard the net on every restart).
- A relation lives on the owner shard of **each** of its partitioned
  endpoints.  The missing endpoint is added to that shard as a *ghost
  replica* (same node object, not owned), so the shard store passes
  endpoint validation and can serve the relation's text locally.

Placement is computed **once per node**, not once per relation:
:func:`owner_map` hashes each partitioned node once, and
:func:`place_relations` — the one statement of the relation rule, which
the cluster's publish also routes its deltas through — places each
relation with two dictionary lookups, naming a ghost only for an
endpoint owned by another shard.

The placement invariant the cluster relies on: **every relation incident
to a node is present on that node's owner shard, in global insertion
order.**  Point lookups (``items_for_concept``, ``concepts_for_item``,
``interpretation``, ``hypernyms``) therefore route to one shard and
answer bit-identically to the monolithic store — including weight-tie
ordering, because each shard replays its relations in global order.

**Sharded lexical retrieval** (:func:`project_bm25_index`): a BM25 score
depends on corpus statistics (idf, average document length), so an index
*fitted per shard* would score with local statistics and a scatter-gather
merge would disagree with the single-index oracle.  Instead each shard
gets a **projection** of the one global index: its own documents and
postings only, but the global idf table and the global length norms.
Shard scores are then exactly the global scores, and merging per-shard
top-k lists by ``(-score, global fit position)`` reproduces the global
``top_k`` bit for bit (:func:`merge_ranked` — the same tie-break contract
the retrieval backends pin down).

**Sharded dense retrieval** works the same way: each shard's dense
indexes are *projections* of one global index — the rows of the shard's
own documents, ghost replicas included, in shard-store order
(:meth:`~repro.retrieval.dense.BruteForceDense.projected`,
:func:`~repro.serving.service.shard_dense_indexes`).  The global index
comes from a snapshot's state or one fit over the net, so a re-split
warm start encodes nothing; a projection equals a fit over the shard's
documents, so it retrieves exactly as a per-shard refit would.  This is
why the one dense index is exact: an approximate index whose structure
depends on the whole population could not be projected, and its shards
would answer differently from a single service.

**The shard interface** (:class:`ShardHandler`): the cluster reaches a
shard only through named verbs — the five routed endpoints, answered by
the shard service's public cached surface, plus the scattered arms,
pool scoring, stats, index states and the publish delta
(:meth:`ShardHandler.apply_delta`).  :class:`LocalShardPool` serves the
verbs in-process; the process executor's worker
(:mod:`repro.serving.procpool`) serves the same verbs over a pipe.
Scattered verbs take a *pin* and read only from the generation it names
(:meth:`ShardHandler.pinned`): an in-process shard's pin is the
:class:`~repro.serving.ServingGeneration` itself, so a read never
depends on how many publishes came since; a worker's pin is the cluster
generation id it retains that generation under.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import ConfigError, DataError, DuplicateNodeError
from ..kg.ids import (
    CLASS_PREFIX,
    ECOMMERCE_PREFIX,
    ITEM_PREFIX,
    PRIMITIVE_PREFIX,
    layer_of,
)
from ..kg.nodes import Node
from ..kg.relations import Relation
from ..kg.store import AliCoCoStore, gc_paused
from ..matching.bm25 import BM25Index
from .service import RERANKER_MODEL, AliCoCoService, ServingGeneration, require_model

#: Layers partitioned across shards by node-id hash.
PARTITIONED_LAYERS = (ECOMMERCE_PREFIX, ITEM_PREFIX)

#: Layers replicated in full to every shard (the small taxonomy layers).
REPLICATED_LAYERS = (CLASS_PREFIX, PRIMITIVE_PREFIX)

#: Endpoints a shard answers through its service's public, cached
#: surface (the cluster's routed endpoints; scattered ones merge in the
#: cluster).
ROUTED_ENDPOINTS = (
    "items_for_concept",
    "concepts_for_item",
    "interpretation",
    "hypernyms",
    "tag",
)


def shard_of(node_id: str, n_shards: int) -> int:
    """Owner shard of a node id: a stable hash, identical across runs.

    CRC32 of the UTF-8 id modulo the shard count — deterministic across
    processes (unlike builtin ``hash``, which is salted), cheap, and
    uniform enough that shard loads balance (see the balance stats in
    ``benchmarks/bench_cluster.py``).

    Raises:
        ConfigError: If ``n_shards`` is not positive.
    """
    if n_shards <= 0:
        raise ConfigError(f"n_shards must be positive, got {n_shards}")
    return zlib.crc32(node_id.encode("utf-8")) % n_shards


def is_partitioned(node_id: str) -> bool:
    """Whether a node id belongs to a hash-partitioned layer."""
    return layer_of(node_id) in PARTITIONED_LAYERS


def owner_of(node_id: str, n_shards: int) -> int | None:
    """Owner shard of a partitioned node id; ``None`` for a replicated one."""
    return shard_of(node_id, n_shards) if is_partitioned(node_id) else None


def owner_map(store: AliCoCoStore, n_shards: int) -> dict[str, int]:
    """Owner shard of every partitioned node of ``store``, keyed by id.

    One :func:`shard_of` per node: the map is computed once per split and
    placement then reads it with dictionary lookups.  Replicated-layer
    ids are absent, so ``owners.get`` answers like :func:`owner_of`.

    Raises:
        ConfigError: If ``n_shards`` is not positive.
    """
    if n_shards <= 0:
        raise ConfigError(f"n_shards must be positive, got {n_shards}")
    return {
        node.id: shard_of(node.id, n_shards)
        for layer in PARTITIONED_LAYERS
        for node in store.nodes(layer)
    }


def place_relations(
    relations: Iterable[Relation],
    owner: Callable[[str], int | None],
    n_shards: int,
) -> Iterator[tuple[int, str | None, Relation]]:
    """Where each relation lives: ``(home shard, ghost id, relation)``.

    The placement rule, in one place.  ``owner`` maps a node id to its
    owner shard, ``None`` for a replicated node.  A relation between two
    replicated nodes lives on every shard; any other relation lives on
    the owner shard of each partitioned endpoint.  ``ghost`` names the
    endpoint that shard must hold as a ghost replica: it is set only when
    the other endpoint is partitioned and owned elsewhere (a replicated
    or locally owned endpoint is present already).  Placements come in
    the relations' order, so each shard's share is an order-preserving
    subsequence of the input.
    """
    for relation in relations:
        source_home = owner(relation.source)
        target_home = owner(relation.target)
        if source_home is None:
            if target_home is None:
                for home in range(n_shards):
                    yield home, None, relation
            else:
                yield target_home, None, relation
        elif target_home is None or target_home == source_home:
            yield source_home, None, relation
        else:
            yield source_home, relation.target, relation
            yield target_home, relation.source, relation


def split_store(
    store: AliCoCoStore,
    n_shards: int,
    owners: Mapping[str, int] | None = None,
) -> list[AliCoCoStore]:
    """Split a store into ``n_shards`` self-contained shard stores.

    Node objects are shared, not copied (nodes are immutable under
    serving); the shard stores come back unfrozen so callers can freeze
    them through the services that serve them.  Splitting is
    deterministic: the same store and shard count always produce the
    same shards, so a cluster can re-split after a snapshot reload and
    land on identical placement.  Each shard holds its nodes in global
    order, then its ghost replicas in first-use order, and its relations
    in global order.  Every node and relation was validated by ``store``,
    so the shards take them through the trusted bulk paths, with the
    garbage collector paused for the whole split
    (:func:`~repro.kg.store.gc_paused`).

    Args:
        owners: The store's :func:`owner_map` for ``n_shards``, when the
            caller already has it; computed here otherwise.

    Raises:
        ConfigError: If ``n_shards`` is not positive.
    """
    if n_shards <= 0:
        raise ConfigError(f"n_shards must be positive, got {n_shards}")
    if owners is None:
        owners = owner_map(store, n_shards)
    owner = owners.get
    shards = [AliCoCoStore() for _ in range(n_shards)]
    with gc_paused():
        homes: list[list[Node]] = [[] for _ in range(n_shards)]
        for node in store.nodes():
            home = owner(node.id)
            if home is None:
                for nodes in homes:
                    nodes.append(node)
            else:
                homes[home].append(node)
        for shard, nodes in zip(shards, homes):
            shard.add_nodes_trusted(nodes)
        # Relations replay in global insertion order per shard, so a
        # shard's adjacency lists are order-preserving subsequences of
        # the global ones — weight ties resolve exactly as the
        # monolithic store would.  Ghost replicas follow the shard's own
        # nodes, in first-use order.
        ghosts: list[dict[str, None]] = [{} for _ in range(n_shards)]
        pending: list[list[Relation]] = [[] for _ in range(n_shards)]
        for home, ghost, relation in place_relations(
            store.relations(), owner, n_shards
        ):
            if ghost is not None and ghost not in shards[home]:
                ghosts[home][ghost] = None
            pending[home].append(relation)
        for shard, replicas, relations in zip(shards, ghosts, pending):
            shard.add_nodes_trusted(store.get(ghost) for ghost in replicas)
            shard.add_relations_trusted(relations)
    return shards


def shard_sizes(store: AliCoCoStore, n_shards: int) -> list[int]:
    """Partitioned nodes *owned* by each shard (replicas not counted).

    The hash-placement census behind the cluster's ownership-imbalance
    report: an unlucky split can leave a shard owning zero nodes, so
    downstream ratio reports must stay ``inf``-safe
    (:attr:`repro.serving.cluster.ClusterStats.ownership_imbalance`).

    Raises:
        ConfigError: If ``n_shards`` is not positive.
    """
    return owned_counts(owner_map(store, n_shards).values(), n_shards)


def owned_counts(homes: Iterable[int], n_shards: int) -> list[int]:
    """How many of ``homes`` name each shard: the census of an
    :func:`owner_map`'s values."""
    counts = [0] * n_shards
    for home in homes:
        counts[home] += 1
    return counts


def owned_ids(
    store: AliCoCoStore, shard_id: int, n_shards: int, layer: str
) -> list[str]:
    """Ids of a layer a shard *owns* (ghost replicas excluded).

    Ownership is a pure function of the id (:func:`shard_of`), so this
    works on the global store and on a shard store alike.
    """
    return [
        node.id
        for node in store.nodes(layer)
        if shard_of(node.id, n_shards) == shard_id
    ]


def project_bm25_index(
    index: BM25Index | None, keep: Iterable[str]
) -> BM25Index | None:
    """Project a fitted global BM25 index onto a document subset.

    The projection keeps only the subset's documents, postings and
    length norms, but the **global** idf table and global-statistics
    norms — so every kept document scores exactly as it does in the full
    index, and a scatter-gather merge of per-shard projections is
    bit-identical to the global ``top_k`` (see :func:`merge_ranked`).
    Local positions preserve global order, so per-shard tie-breaks stay
    order-consistent with the global index.

    Returns ``None`` when the subset is empty (or the index is ``None``)
    — a shard owning no concepts serves an empty search surface.  The
    projection reads the index's own lists
    (:meth:`~repro.matching.bm25.BM25Index.projected`) and shares its idf
    table; it is a bulk build of posting lists, so it runs with the
    garbage collector paused (:func:`~repro.kg.store.gc_paused`).
    """
    if index is None:
        return None
    with gc_paused():
        return index.projected(keep)


def split_concept_index(
    index: BM25Index | None, n_shards: int
) -> list[BM25Index | None]:
    """Per-shard projections of the global concept index.

    Raises:
        ConfigError: If ``n_shards`` is not positive.
    """
    if n_shards <= 0:
        raise ConfigError(f"n_shards must be positive, got {n_shards}")
    if index is None:
        return [None] * n_shards
    return [
        project_bm25_index(
            index,
            (doc_id for doc_id in index.doc_ids if shard_of(doc_id, n_shards) == shard),
        )
        for shard in range(n_shards)
    ]


def merge_ranked(
    arms: Sequence[Sequence[tuple]], position: Mapping[str, int], k: int
) -> tuple:
    """Deterministic global merge of per-shard ``(id, score)`` rankings.

    The scatter-gather counterpart of a single index's ``top_k``: every
    candidate from every shard is pooled (duplicates — ghost replicas
    indexed on two shards — keep their first occurrence; replicas score
    identically by construction, so which copy survives cannot matter)
    and re-ranked by ``(-score, global fit position)``.  Because each
    shard's list is its *exact* local top-k under global scores, the
    union is a superset of the global top-k and the merge reproduces the
    single-index ranking bit for bit — the same tie-break contract as
    :meth:`repro.matching.bm25.BM25Index.top_k` and the dense retrievers.

    Args:
        arms: One ``((id, score), ...)`` ranking per shard.
        position: Node id -> global fit position (ties break low-first).
            Ids absent from the map rank after mapped ones, by id.
        k: Result length bound.
    """
    pooled: dict[str, float] = {}
    for arm in arms:
        for node_id, score in arm:
            if node_id not in pooled:
                pooled[node_id] = score
    fallback = len(position)
    ranked = sorted(
        pooled.items(),
        key=lambda pair: (-pair[1], position.get(pair[0], fallback), pair[0]),
    )
    return tuple(ranked[:k])


def dense_presence(service: AliCoCoService) -> tuple[str, ...]:
    """Names of the dense indexes a shard service currently holds."""
    indexes = service._gen.dense_indexes
    return tuple(sorted(name for name, index in indexes.items() if index is not None))


class ShardHandler:
    """The shard verbs over one shard service (see the module docstring)."""

    def __init__(self, service: AliCoCoService):
        self.service = service
        self._verbs = {
            name.removeprefix("_verb_"): getattr(self, name)
            for name in dir(self)
            if name.startswith("_verb_")
        }

    def dispatch(self, method: str, args: tuple) -> Any:
        """Answer one verb; an unknown one raises ``ConfigError``."""
        verb = self._verbs.get(method)
        if verb is not None:
            return verb(*args)
        if method in ROUTED_ENDPOINTS:
            # Looked up per call, so a wrapper installed on the service
            # class after construction still sees routed requests.
            return getattr(self.service, method)(*args)
        raise ConfigError(f"unknown shard verb {method!r}")

    def pinned(self, pin: Any) -> ServingGeneration:
        """The generation a pin names: in-process, the pin itself."""
        return pin

    def apply_delta(
        self, ops: Sequence[tuple[str, Any]], projection: BM25Index | None
    ) -> ServingGeneration:
        """Grow the shard store with a publish delta, publish, and return
        the new pin.

        ``ops`` is the cluster's sequence for this shard, in global
        insertion order: ``("node", node)``, ``("ghost", node)`` (a
        replica, duplicates tolerated) and ``("relation", relation)``.
        Nodes go in op order, then the relations as one batch (each needs
        only its endpoints, which precede it).  The pin serves
        ``projection``, the shard's share of the advanced global concept
        index, even when the shard had no delta and kept its old bundle:
        global corpus statistics moved all the same.
        """
        store = self.service.store
        relations = []
        for kind, payload in ops:
            if kind == "node":
                store.add_node(payload)
            elif kind == "ghost":
                try:
                    store.add_node(payload)
                except DuplicateNodeError:
                    pass
            elif kind == "relation":
                relations.append(payload)
            else:
                raise DataError(f"unknown delta op kind {kind!r}")
        store.add_relations(relations)
        self.service.publish(search_index=projection)
        gen = self.service._gen
        if gen.search_index is not projection:
            gen = replace(gen, search_index=projection)
        return gen

    def _verb_search_arm(self, pin: Any, tokens: tuple[str, ...], k: int) -> tuple:
        index = self.pinned(pin).search_index
        return self.service._search_uncached(tokens, k, index=index)

    def _verb_dense_arm(self, pin: Any, name: str, vector: Any, k: int) -> tuple:
        indexes = self.pinned(pin).dense_indexes
        return self.service._dense_arm(name, vector, k, indexes=indexes)

    def _verb_items_arm(self, pin: Any, concept_id: str, k: int) -> tuple:
        store = self.pinned(pin).store
        return self.service._items_uncached(concept_id, k, store=store)

    def _verb_pool_scores(self, *args: Any) -> list[float]:
        reranker = require_model(self.service._reranker, RERANKER_MODEL, "pool_scores")
        return self.service._pool_scores(reranker, *args)

    def _verb_stats(self) -> Any:
        return self.service.stats()

    def _verb_index_states(self, pin: Any) -> dict[str, Any]:
        indexes = self.pinned(pin).dense_indexes
        return {
            name: index.to_state()
            for name, index in indexes.items()
            if index is not None
        }


class LocalShardPool:
    """In-process shard services behind
    :class:`~repro.serving.procpool.ProcessShardPool`'s surface; a
    shard's pin is its :class:`~repro.serving.ServingGeneration`."""

    def __init__(self, services: Sequence[AliCoCoService]):
        self._handlers = [ShardHandler(service) for service in services]
        self._pins = [service._gen for service in services]

    def call(self, shard: int, method: str, *args: Any) -> Any:
        """Answer one verb on one shard."""
        return self._handlers[shard].dispatch(method, args)

    def scatter(self, calls: Mapping[int, tuple[str, tuple]]) -> dict[int, Any]:
        """``{shard: result}`` of one verb per listed shard, in shard order."""
        handlers = self._handlers
        return {
            shard: handlers[shard].dispatch(method, args)
            for shard, (method, args) in sorted(calls.items())
        }

    def apply_delta(
        self,
        shard: int,
        cluster_generation_id: int,
        ops: Sequence[tuple[str, Any]],
        projection: BM25Index | None,
    ) -> ServingGeneration:
        """One shard's :meth:`ShardHandler.apply_delta`; returns its pin."""
        self._pins[shard] = self._handlers[shard].apply_delta(ops, projection)
        return self._pins[shard]

    def pins(self) -> tuple[ServingGeneration, ...]:
        """Each shard's current pin, in shard order."""
        return tuple(self._pins)

    def dense_presence(self) -> tuple[str, ...]:
        """Dense index names present on at least one shard."""
        names = {
            name
            for handler in self._handlers
            for name in dense_presence(handler.service)
        }
        return tuple(sorted(names))

    def stats(self) -> None:
        """No worker health to report in-process."""

    def close(self) -> None:
        """Nothing to shut down in-process."""
