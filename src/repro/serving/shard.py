"""Hash-sharding a served net for scatter-gather serving.

The paper's net answers Alibaba-scale traffic; one Python process with
one monolithic store does not.  This module is the *data* half of the
cluster tier (:mod:`repro.serving.cluster` is the query half): it splits
the cluster's served generation view into N self-contained shard
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

**Sharded retrieval** (:func:`split_index`): the cluster owns one global
BM25 concept index and one global dense index per population, and each
shard holds a **projection** of each — the rows of the documents it
*owns* (:func:`shard_of`), in global fit order; ghost replicas are not
indexed.  A BM25 score depends on corpus statistics (idf, average
document length), so an index *fitted per shard* would score with local
statistics; a BM25 projection keeps its documents' postings but the
global idf table and length norms, so shard scores are exactly the
global scores.  A dense projection keeps its documents' rows as stored
(:meth:`~repro.retrieval.dense.BruteForceDense.projected`), and rows are
scored one by one, so a document scores the same in any projection.
The projections partition the global index, so the per-shard top-k
lists are disjoint and together cover the global top-k: merging them by
``(-score, global fit position)`` reproduces the global ranking bit for
bit (:func:`merge_ranked` — the same tie-break contract the retrieval
backends pin down).  This is why the one dense index is exact: an
approximate index whose structure depends on the whole population could
not be projected, and its shards would answer differently from a single
service.

**The shard interface** (:class:`ShardHandler`): the cluster reaches a
shard only through named verbs — the five routed endpoints, answered by
the shard service's public cached surface, plus the scattered arms,
pool scoring, stats and the publish delta
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
from ..retrieval import BruteForceDense
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
    serving); the shard stores come back unfrozen, and the service that
    serves each one freezes it.  Splitting is
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


def owned_counts(homes: Iterable[int], n_shards: int) -> list[int]:
    """How many of ``homes`` name each shard: the census of an
    :func:`owner_map`'s values."""
    counts = [0] * n_shards
    for home in homes:
        counts[home] += 1
    return counts


def split_index(index: Any, n_shards: int, start: int = 0) -> list[Any]:
    """Each shard's projection of a global index's rows from ``start`` on.

    The one projection rule, for a BM25 and a dense index alike: a shard
    gets the documents it owns (``shard_of(doc_id) == shard``), in global
    fit order — ``None`` when it owns none, or ``index`` is ``None``.
    Projecting is a bulk build, so the garbage collector is paused
    (:func:`~repro.kg.store.gc_paused`).

    Raises:
        ConfigError: If ``n_shards`` is not positive.
    """
    if n_shards <= 0:
        raise ConfigError(f"n_shards must be positive, got {n_shards}")
    if index is None:
        return [None] * n_shards
    owned: list[list[str]] = [[] for _ in range(n_shards)]
    for doc_id in index.doc_ids[start:]:
        owned[shard_of(doc_id, n_shards)].append(doc_id)
    with gc_paused():
        return [index.projected(ids) for ids in owned]


def merge_ranked(
    arms: Sequence[Sequence[tuple]], position: Mapping[str, int], k: int
) -> tuple:
    """Deterministic global merge of per-shard ``(id, score)`` rankings.

    The scatter-gather counterpart of a single index's ``top_k``: every
    candidate from every shard is pooled and re-ranked by ``(-score,
    global fit position)``.  The arms are disjoint — each shard's
    projection holds only the documents it owns (:func:`split_index`) —
    so no id reaches two arms and nothing needs deduplicating.  Because
    each shard's list is its *exact* local top-k under global scores, the
    union is a superset of the global top-k and the merge reproduces the
    single-index ranking bit for bit — the same tie-break contract as
    :meth:`repro.matching.bm25.BM25Index.top_k` and the dense retrievers.

    Args:
        arms: One ``((id, score), ...)`` ranking per shard.
        position: Node id -> global fit position (ties break low-first).
            Ids absent from the map rank after mapped ones, by id.
        k: Result length bound.
    """
    fallback = len(position)
    ranked = sorted(
        (pair for arm in arms for pair in arm),
        key=lambda pair: (-pair[1], position.get(pair[0], fallback), pair[0]),
    )
    return tuple(ranked[:k])


def _appended(
    index: BruteForceDense | None, rows: BruteForceDense | None
) -> BruteForceDense | None:
    """A shard's dense projection grown by its new rows (either may be
    ``None``)."""
    if rows is None:
        return index
    return rows if index is None else index.concatenated(rows)


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
        self,
        ops: Sequence[tuple[str, Any]],
        projection: BM25Index | None,
        dense_rows: Mapping[str, BruteForceDense | None],
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
        global corpus statistics moved all the same.  ``dense_rows`` holds
        each dense population's new rows the shard owns (``None`` for
        none), projected from the cluster's advanced global index and
        appended to the shard's projection as stored — the shard never
        encodes, fits or extends an index itself.
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
        dense = {
            name: _appended(index, dense_rows.get(name))
            for name, index in self.service._gen.dense_indexes.items()
        }
        self.service.publish(search_index=projection, dense_indexes=dense)
        gen = self.service._gen
        if gen.search_index is not projection:
            gen = replace(gen, search_index=projection, dense_indexes=dense)
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
        dense_rows: Mapping[str, BruteForceDense | None],
    ) -> ServingGeneration:
        """One shard's :meth:`ShardHandler.apply_delta`; returns its pin."""
        handler = self._handlers[shard]
        self._pins[shard] = handler.apply_delta(ops, projection, dense_rows)
        return self._pins[shard]

    def pins(self) -> tuple[ServingGeneration, ...]:
        """Each shard's current pin, in shard order."""
        return tuple(self._pins)

    def stats(self) -> None:
        """No worker health to report in-process."""

    def close(self) -> None:
        """Nothing to shut down in-process."""
