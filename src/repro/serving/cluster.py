"""Horizontally-scaled serving: scatter-gather over sharded services.

The paper's net sits behind Alibaba search and recommendation — traffic
no single store answers.  :class:`AliCoCoCluster` is that deployment
shape in miniature: the frozen net is hash-split across N shard stores
(:mod:`repro.serving.shard`), each served by an ordinary
:class:`~repro.serving.AliCoCoService`, and the cluster exposes the
*same eight endpoints* with the same answers:

- **Routed** endpoints (``items_for_concept``, ``concepts_for_item``,
  ``interpretation``, ``hypernyms``, ``tag``) touch one shard — the
  partitioned node's owner, or shard 0 for replicated-layer queries.
  The placement invariant (every relation incident to a node lives on
  its owner shard, in global insertion order) makes the routed answer
  bit-identical to the monolithic service's.
- **Scattered** endpoints (``search`` and the two ``*_reranked``) fan
  out to every shard and merge deterministically: per-shard BM25
  *projections* score with global corpus statistics, so merging local
  top-k lists by ``(-score, global fit position)`` reproduces the global
  ranking bit for bit (:func:`~repro.serving.shard.merge_ranked`).
  Reranking runs in two phases — gather the first-stage pool globally,
  then scatter the scoring back to each candidate's owner shard (whose
  doc-encoding cache already holds it) and merge by ``(-probability,
  id)``, the single-service sort contract.  Per-candidate scores are
  pool-composition independent, so the merged ranking equals the
  single-service one.  Every first stage is exact — BM25 projections and
  brute-force dense projections (:mod:`repro.serving.shard`) — so the
  bit-identity guarantee covers every retriever mode.

**One owner per index.**  The cluster owns every global index — the
BM25 concept index and one dense index per population — and each shard
holds exactly its own rows of each (:func:`~repro.serving.shard.split_index`):
the documents it owns, in global fit order, never a ghost replica.  Warm
start and :meth:`AliCoCoCluster.publish` project both kinds of index by
that one rule, and no shard fits or extends an index itself.

On top of the fan-out sit the two traffic-shaping layers this module
adds (both off the hot path of a cache hit):

- **Request coalescing** (:mod:`repro.serving.coalesce`): the reranked
  endpoints — the model-bound hot path — deduplicate concurrent
  identical requests into one ``score_pool`` computation, optionally
  widened by a coalescing window.  Results are serial-identical because
  the computation is deterministic over frozen state.
- **Admission control** (:mod:`repro.serving.admission`): every
  computed request holds one of ``max_inflight`` slots; beyond
  ``max_queue_depth`` waiters or ``max_queue_wait_ms`` of waiting the
  cluster sheds with :class:`~repro.errors.OverloadedError` instead of
  queueing without bound.  Coalescing sits *outside* admission, so N
  duplicate requests consume one slot, not N — and a joiner can never
  deadlock waiting for a leader that is itself queued behind the
  joiner's slot.

A cluster snapshot **is** a service snapshot: the global store (or its
generations), the global concept index, the global dense index states
and the model bundles — nothing per shard.  A single service serves it
as it is, and a cluster at any shard count warm-starts from it, or from
a service's snapshot, the same way: :func:`~repro.serving.service.open_snapshot`,
then a deterministic re-split and fresh projections of the global
indexes, re-fitting none whose state covers the net
(:func:`~repro.serving.service.served_indexes`).  A save writes the
generation the cluster serves, with the global indexes built over it.

**Generation advancement.**  A cluster over a
:class:`~repro.kg.generations.GenerationalStore` is not pinned forever:
:meth:`AliCoCoCluster.publish` seals the source store's open delta and
advances every shard in a **two-phase** publish.  Phase one grows each
shard's own generational store (delta nodes route through
:func:`~repro.serving.shard.shard_of`, relations land on their owner
shards with ghost replicas, all invisible to readers), extends the
global concept and dense indexes (each new document encoded once), and
installs each shard's next generation with its new projections; phase
two installs one immutable :class:`ClusterGeneration` bundle — global
view, global indexes, merge position maps and each shard's pin (the
generation its scattered verbs read) — with a single attribute
assignment.  Scattered reads pin the bundle at entry
and read only from it, so a fan-out never mixes two generations:
every answer is a whole generation, before or after, never a blend.

**Executors.**  The cluster reaches its shards only through a shard
pool's verbs (:class:`~repro.serving.shard.ShardHandler`): ``call`` for a
routed endpoint, ``scatter`` for a fan-out, ``apply_delta`` for a
publish.  ``ClusterConfig(executor="thread")`` (the default) builds a
:class:`~repro.serving.shard.LocalShardPool` over in-process shard
services; per-shard work is pure Python, so a fan-out serializes on the
GIL and adding shards buys almost no throughput.
``executor="process"`` builds a
:class:`~repro.serving.procpool.ProcessShardPool` instead: one bootstrap
snapshot and one worker process per shard, answering the same verbs over
a compact framed RPC (:mod:`repro.serving.rpc`).  Answers are
bit-identical either way — the same stores, index projections (global
corpus statistics) and models.  Cache → coalesce → admit ordering stays
in the parent, and under the process executor a crashed worker restarts
from its snapshot plus the replayed delta log — or, past the restart
budget, degrades to a typed :class:`~repro.errors.ShardUnavailableError`
while healthy shards keep answering.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..concepts.tagging import ConceptTagger
from ..errors import ConfigError, ShardUnavailableError
from ..kg.generations import GenerationalStore
from ..kg.ids import ECOMMERCE_PREFIX
from ..kg.relations import RelationKind
from ..kg.serialize import load_snapshot
from ..kg.store import AliCoCoStore, gc_paused
from ..matching.bm25 import BM25Index
from ..ml.module import Module
from ..retrieval import BruteForceDense
# Unused here since fusion runs in service.first_stage, but perfbench
# wraps cluster.rrf_fuse by name until its next benchmark change.
from ..retrieval import rrf_fuse  # noqa: F401
from .admission import AdmissionController, AdmissionStats
from .cache import CacheCounters, LRUCache
from .coalesce import Coalescer, CoalescerStats
from .models import dense_query_vector
from .procpool import ProcessShardPool, ProcPoolStats, spawn_shard_pool
from .service import (
    CONCEPT_INDEX,
    DENSE_CONCEPT_INDEX,
    DENSE_ITEM_INDEX,
    RERANKER_MODEL,
    AliCoCoService,
    ServiceConfig,
    _MISS,
    endpoint_handlers,
    extended_indexes,
    fresh_doc_vector,
    metered_errors,
    open_snapshot,
    prepare_models,
    require_layer,
    require_model,
    run_batch,
    served_indexes,
    served_models,
    serve_cached,
    verify_pool,
    write_snapshot,
)
from .shard import (
    LocalShardPool,
    is_partitioned,
    merge_ranked,
    owned_counts,
    owner_map,
    owner_of,
    place_relations,
    shard_of,
    split_index,
    split_store,
)
from .stats import EndpointStats, ServiceStats, endpoint_table

#: Endpoints routed through the coalescer — the model-bound hot path.
COALESCED_ENDPOINTS = ("items_for_concept_reranked", "search_reranked")


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster-tier knobs (the per-shard services take a ``ServiceConfig``).

    Attributes:
        n_shards: Shard stores to split the net across.
        cache_capacity: Cluster-level result-cache entries (`0` disables);
            sits in front of coalescing and admission, so a hot repeat
            never consumes an execution slot.
        coalesce_window_ms: How long a rerank leader waits for duplicate
            requests to pile on before computing (``0`` = pure
            singleflight dedup, no added latency).
        max_inflight: Concurrent computed requests (admission slots).
        max_queue_depth: Requests allowed to wait for a slot; arrivals
            beyond that shed immediately (``OverloadedError``,
            ``reason="queue_full"``).
        max_queue_wait_ms: Longest a queued request may wait before
            shedding (``reason="queue_timeout"``).
        reservoir_capacity: Latency samples per endpoint / wait reservoir.
        seed: Seed for the reservoirs' replacement RNG.
        executor: Which shard pool serves the verbs: ``"thread"``
            (default) serves every shard in-process, one shard after
            another (:class:`~repro.serving.shard.LocalShardPool`);
            ``"process"`` spawns one worker process per shard
            (:mod:`repro.serving.procpool`) — bit-identical answers,
            genuinely parallel scattered arms (the GIL escape).
        max_worker_restarts: Process executor only — respawns allowed
            per crashed worker before its shard degrades to
            :class:`~repro.errors.ShardUnavailableError`.
        worker_dir: Process executor only — directory for the per-shard
            bootstrap snapshots workers boot (and restart) from; a
            private temporary directory when ``None``, removed on
            :meth:`AliCoCoCluster.close`.
    """

    n_shards: int = 2
    cache_capacity: int = 4096
    coalesce_window_ms: float = 0.0
    max_inflight: int = 8
    max_queue_depth: int = 16
    max_queue_wait_ms: float = 200.0
    reservoir_capacity: int = 512
    seed: int = 0
    executor: str = "thread"
    max_worker_restarts: int = 2
    worker_dir: str | None = None

    def __post_init__(self) -> None:
        if self.n_shards <= 0:
            raise ConfigError(f"n_shards must be positive, got {self.n_shards}")
        if self.executor not in ("thread", "process"):
            raise ConfigError(
                f"executor must be 'thread' or 'process', got {self.executor!r}"
            )
        if self.max_worker_restarts < 0:
            raise ConfigError(
                f"max_worker_restarts must be >= 0, got {self.max_worker_restarts}"
            )
        if self.cache_capacity < 0:
            raise ConfigError(
                f"cache_capacity must be >= 0, got {self.cache_capacity}"
            )
        if self.coalesce_window_ms < 0:
            raise ConfigError(
                f"coalesce_window_ms must be >= 0, got {self.coalesce_window_ms}"
            )
        # max_inflight / max_queue_depth / max_queue_wait_ms are validated
        # by the AdmissionController built from them.


@dataclass(frozen=True)
class ClusterGeneration:
    """One immutable cluster-wide serving state.

    The cluster's counterpart of :class:`~repro.serving.ServingGeneration`:
    everything a scattered read touches — the global view, the global
    indexes, the merge tie-break maps and each shard's pinned generation
    (which holds the shard's projections) — rides one frozen bundle
    behind one attribute.  Requests pin the current instance at entry, so a
    concurrent :meth:`AliCoCoCluster.publish` can never show a fan-out
    two different generations (phase two of the publish installs the
    next bundle with a single atomic assignment).

    Attributes:
        generation_id: The source-store generation this bundle serves.
        store: The pinned global read view.
        search_index: The global BM25 concept index, or ``None``.
        dense_indexes: The global dense indexes by population (empty
            under ``retriever="bm25"``; ``None`` for an empty
            population).  Each shard serves its own rows of each.
        positions: Each global index's node id -> fit position map, by
            index name: the tie-break of its scatter merges
            (:func:`~repro.serving.shard.merge_ranked`).
        shards: Each shard's pin, in shard order — what a scattered verb
            reads from: an in-process shard's pinned
            :class:`~repro.serving.ServingGeneration`, or the cluster
            generation id a worker process retains its generation under.
        node_count / relation_count: Global sizes this bundle covers;
            the next publish routes exactly the rows beyond these counts
            (count slicing survives source-store compaction, which
            reshapes segments but never reorders reads).
    """

    generation_id: int
    store: Any
    search_index: BM25Index | None
    dense_indexes: dict[str, BruteForceDense | None]
    positions: dict[str, dict[str, int]]
    shards: tuple[Any, ...]
    node_count: int
    relation_count: int


@dataclass(frozen=True)
class ClusterStats:
    """Whole-cluster report: fan-out balance, coalescing, admission, shards.

    Attributes:
        n_shards: Shard count.
        nodes / relations: Global (pre-split) store size.
        cache_*: The cluster-level result cache.
        endpoints: Cluster-level per-endpoint stats (shed requests show
            up as ``OverloadedError`` entries in ``errors``).
        coalescer: Singleflight counters for the reranked endpoints.
        admission: Slot/queue/shed counters and queue-wait percentiles.
        shard_calls: Sub-requests dispatched to each shard (routed ones
            count their owner; scattered ones count every shard).
        shards: Each shard service's own :class:`ServiceStats` (under
            the process executor, fetched from the workers over RPC;
            shards whose worker is unavailable are omitted).
        generation_id: The cluster generation being served (0 for a
            cluster over a plain frozen store).
        executor: Which shard executor answered — ``"thread"`` or
            ``"process"``.
        shard_owned: Partitioned nodes *owned* by each shard (hash
            placement census; replicas not counted).
        workers: Process executor only — per-worker liveness, restart
            budget burn and RPC round-trip percentiles.
    """

    n_shards: int
    nodes: int
    relations: int
    cache_entries: int
    cache_capacity: int
    cache_evictions: int
    endpoints: tuple[EndpointStats, ...]
    coalescer: CoalescerStats
    admission: AdmissionStats
    shard_calls: tuple[int, ...]
    shards: tuple[ServiceStats, ...] = field(repr=False)
    generation_id: int = 0
    executor: str = "thread"
    shard_owned: tuple[int, ...] = ()
    workers: ProcPoolStats | None = None

    def endpoint(self, name: str) -> EndpointStats:
        """Stats for one cluster endpoint.

        Raises:
            KeyError: If the endpoint never existed on the cluster.
        """
        for stats in self.endpoints:
            if stats.endpoint == name:
                return stats
        raise KeyError(f"unknown endpoint {name!r}")

    @property
    def total_calls(self) -> int:
        """Queries answered across all cluster endpoints."""
        return sum(stats.calls for stats in self.endpoints)

    @property
    def total_errors(self) -> int:
        """Requests that raised (shed ones included), across endpoints."""
        return sum(stats.error_total for stats in self.endpoints)

    @property
    def imbalance(self) -> float:
        """Hottest shard's sub-request load over the mean (1.0 = even).

        The figure of merit for the hash placement: with CRC32 placement
        it should sit near 1.0; a value of ``n_shards`` means one shard
        is taking all the traffic.
        """
        total = sum(self.shard_calls)
        if not total:
            return 1.0
        mean = total / len(self.shard_calls)
        return max(self.shard_calls) / mean

    @property
    def ownership_imbalance(self) -> float:
        """Hottest shard's *owned* node count over the coldest's.

        ``inf``-safe by construction: an unlucky hash split can leave a
        shard owning zero partitioned nodes, and a ratio report must
        degrade to ``float("inf")`` — never divide by zero.  A cluster
        with no partitioned nodes at all (or no census) reports 1.0.
        """
        if not self.shard_owned:
            return 1.0
        low = min(self.shard_owned)
        high = max(self.shard_owned)
        if high == 0:
            return 1.0
        if low == 0:
            return float("inf")
        return high / low

    def format_table(self, title: str = "cluster stats") -> str:
        """Human-readable cluster report for benches and examples."""
        coalescer = self.coalescer
        admission = self.admission
        lines = [
            title,
            f"  shards: {self.n_shards} · store: {self.nodes} nodes / "
            f"{self.relations} relations",
            f"  cache: {self.cache_entries}/{self.cache_capacity} "
            f"entries, {self.cache_evictions} evictions",
            f"  coalescer: {coalescer.flights} flights / "
            f"{coalescer.joined} joined "
            f"(mean batch {coalescer.mean_batch:.2f}, "
            f"max {coalescer.max_batch}, "
            f"window {coalescer.window_seconds * 1e3:.1f}ms)",
            f"  admission: {admission.admitted} admitted, "
            f"{admission.shed_total} shed "
            f"({admission.shed_rate * 100:.1f}%), "
            f"queue-wait p50 {admission.queue_wait_p50_ms:.4f}ms / "
            f"p99 {admission.queue_wait_p99_ms:.4f}ms",
        ]
        if admission.shed:
            reasons = ", ".join(
                f"{reason} x{count}" for reason, count in admission.shed
            )
            lines.append(f"  shed: {reasons}")
        calls = ", ".join(str(count) for count in self.shard_calls)
        lines.append(f"  shard calls: [{calls}] (imbalance {self.imbalance:.2f})")
        if self.shard_owned:
            owned = ", ".join(str(count) for count in self.shard_owned)
            lines.append(
                f"  shard owned: [{owned}] "
                f"(ownership imbalance {self.ownership_imbalance:.2f})"
            )
        if self.workers is not None:
            for worker in self.workers.workers:
                state = "up" if worker.alive else "DOWN"
                lines.append(
                    f"  worker shard{worker.shard}: pid {worker.pid} {state}, "
                    f"{worker.restarts} restarts, {worker.calls} rpcs, "
                    f"rtt p50 {worker.rtt_p50_ms:.3f}ms / "
                    f"p99 {worker.rtt_p99_ms:.3f}ms"
                )
        lines += endpoint_table(self.endpoints)
        return "\n".join(lines)


class AliCoCoCluster:
    """Scatter-gather cluster over hash-sharded :class:`AliCoCoService`\\ s.

    Same endpoint surface and answers as a single service over the same
    store (see the module docstring for the exact bit-identity
    contract), plus request coalescing on the reranked endpoints and
    admission control with typed load shedding on everything computed.

    Thread-safe exactly like the single service: shard stores and
    indexes are frozen, and the cache / metrics / coalescer / admission
    controller each guard themselves.

    Args:
        store: The global net; frozen in place and hash-split into
            ``config.n_shards`` shard stores.
        config: Cluster-tier knobs (sharding, coalescing, admission).
        service_config: Per-shard serving knobs (retriever mode, pool
            sizes, caches); every shard gets the same config.
        search_index: A *global* concept index to serve as it is
            (``None`` included).  When omitted, it comes from
            ``dense_index_states`` or a fit over the store.  Shards
            always serve projections of the global index, never their
            own fits.
        tagger / reranker: Trained models, shared read-only by every
            shard service.
        dense_index_states: *Global* index states (a snapshot's
            ``index_states``).  Each global index — the concept index and
            the dense ones — is rehydrated from a state whose ids are the
            store's documents, or else fitted once over the store, every
            document encoded once however many shards there are
            (:func:`~repro.serving.service.served_indexes`); shards serve
            their projections.
        config_fingerprint: Build-config digest embedded in snapshots.

    Raises:
        ConfigError: Propagated from the shard services (e.g. dense
            retrieval without a vector-capable reranker) or from invalid
            cluster knobs.
    """

    def __init__(
        self,
        store: AliCoCoStore,
        *,
        config: ClusterConfig | None = None,
        service_config: ServiceConfig | None = None,
        search_index: Any = _MISS,
        tagger: ConceptTagger | None = None,
        reranker: Module | None = None,
        dense_index_states: Mapping[str, Any] | None = None,
        config_fingerprint: str = "",
    ):
        self.config = config or ClusterConfig()
        self._service_config = service_config or ServiceConfig()
        n_shards = self.config.n_shards
        # A cluster over a generational store serves its *published*
        # view and advances through publish() (see the module
        # docstring); one over a plain store is frozen at generation 0
        # forever.  Either way, all serving state — shard placement,
        # index projections, tie-break orders — derives from one
        # consistent pinned view, bundled in a ClusterGeneration.  The
        # generation id prefixes the cluster cache's keys, so entries
        # from different generations can never alias.
        if isinstance(store, GenerationalStore):
            self._source: GenerationalStore | None = store
            view = store.current()
        else:
            self._source = None
            view = store.freeze()
        self._generational = self._source is not None
        self._fingerprint = config_fingerprint
        initial_generation = view.generation_id if self._generational else 0
        # The prepared (fitted-checked, eval-mode) models; shared by
        # every shard, referenced here for query-side encodings.
        self._tagger, self._reranker = prepare_models(
            self._service_config, tagger, reranker
        )
        dense_indexes = served_indexes(
            view,
            self._service_config,
            dense_index_states or {},
            fresh_doc_vector(self._reranker),
            {} if search_index is _MISS else {CONCEPT_INDEX: search_index},
        )
        search_index = dense_indexes.pop(CONCEPT_INDEX)
        owners = owner_map(view, n_shards)
        shard_stores = split_store(view, n_shards, owners)
        shard_search = split_index(search_index, n_shards)
        shard_dense = _dense_rows(dense_indexes, n_shards, {})
        if self.config.executor == "process":
            self._services: tuple[AliCoCoService, ...] = ()
            self._pool: LocalShardPool | ProcessShardPool = spawn_shard_pool(
                shard_stores,
                self.config,
                search_indexes=shard_search,
                dense_indexes=shard_dense,
                config_fingerprint=config_fingerprint,
                service_config=self._service_config,
                tagger=self._tagger,
                reranker=self._reranker,
                generational=self._generational,
                cluster_generation_id=initial_generation,
            )
        else:
            # Shards of an advancing cluster get generational stores of
            # their own, so publish() can grow them behind their readers;
            # frozen clusters keep the historical frozen shard stores.
            # Building a shard service is a bulk build, so the collector
            # is paused, as for the split.
            with gc_paused():
                self._services = tuple(
                    AliCoCoService(
                        (
                            GenerationalStore(shard_store)
                            if self._generational
                            else shard_store
                        ),
                        config=self._service_config,
                        search_index=shard_search[shard],
                        tagger=self._tagger,
                        reranker=self._reranker,
                        dense_indexes=shard_dense[shard],
                        config_fingerprint=config_fingerprint,
                    )
                    for shard, shard_store in enumerate(shard_stores)
                )
            self._pool = LocalShardPool(self._services)
        self._publish_lock = threading.Lock()
        self._shard_owned = tuple(owned_counts(owners.values(), n_shards))
        self._cgen = _bundle(
            initial_generation, view, search_index, dense_indexes, self._pool.pins()
        )
        self._cache = (
            LRUCache(self.config.cache_capacity)
            if self.config.cache_capacity
            else None
        )
        self._coalescer = Coalescer(
            window_seconds=self.config.coalesce_window_ms / 1e3
        )
        self._admission = AdmissionController(
            self.config.max_inflight,
            self.config.max_queue_depth,
            self.config.max_queue_wait_ms / 1e3,
            reservoir_capacity=self.config.reservoir_capacity,
            seed=self.config.seed + 101,
        )
        self._shard_calls = [0] * n_shards
        self._balance_lock = threading.Lock()
        self._handlers, self._metrics = endpoint_handlers(
            self, self.config.reservoir_capacity, self.config.seed
        )

    # ------------------------------------------------------------ warm start
    @classmethod
    def from_snapshot(
        cls,
        path: str | Path,
        *,
        config: ClusterConfig | None = None,
        service_config: ServiceConfig | None = None,
        tagger: ConceptTagger | None = None,
        reranker: Module | None = None,
        expected_fingerprint: str | None = None,
    ) -> "AliCoCoCluster":
        """Warm-start a cluster from a service (or cluster) snapshot, at
        any shard count.

        :func:`~repro.serving.service.open_snapshot` — store and model
        bundles restored exactly as in
        :meth:`AliCoCoService.from_snapshot` — then the constructor with
        the snapshot's global index states.  The warm start is one bulk
        build, so the collector is paused for all of it
        (:func:`~repro.kg.store.gc_paused`).

        Raises:
            DataError: If the snapshot is malformed, fingerprint-
                mismatched, or a requested model bundle is absent or
                invalid.
        """
        with gc_paused():
            snapshot = load_snapshot(path)
            return cls(
                open_snapshot(snapshot, expected_fingerprint, tagger, reranker),
                config=config,
                service_config=service_config,
                tagger=tagger,
                reranker=reranker,
                dense_index_states=snapshot.index_states,
                config_fingerprint=snapshot.header.config_fingerprint,
            )

    def save_snapshot(self, path: str | Path) -> int:
        """Persist the cluster as the snapshot a single service would write
        (:func:`~repro.serving.service.write_snapshot`): the global view
        the cluster serves — over a generational store, its sealed
        segments and their numbering, so a reload resumes at the served
        generation, not the source's newest — the global indexes built
        over it and the model bundles.

        Returns:
            Number of bytes written.
        """
        return write_snapshot(
            path,
            self._cgen,
            config_fingerprint=self._fingerprint,
            tagger=self._tagger,
            reranker=self._reranker,
        )

    # ----------------------------------------------------------- generations
    def publish(self) -> int:
        """Seal source-store writes and advance every shard, two-phase.

        **Phase one** (invisible to readers): seals and swaps the source
        :class:`~repro.kg.generations.GenerationalStore`, slices the
        rows beyond the served bundle's covered counts — count slicing,
        so a source-store compaction between publishes changes nothing —
        and routes them into the shards' own generational stores: nodes
        by :func:`~repro.serving.shard.shard_of` (replicated layers to
        every shard), each relation to its owner shards in global
        insertion order (:func:`~repro.serving.shard.place_relations`,
        the rule the initial split uses), endpoints owned elsewhere added
        as ghost replicas.  Every global index is extended by the one
        rule a service publishes with
        (:func:`~repro.serving.service.extended_indexes`, each new dense
        document encoded once); the concept index is re-split into fresh
        per-shard projections and each shard gets only its new dense
        rows.  Each grown shard publishes its next generation with
        them (:meth:`~repro.serving.shard.ShardHandler.apply_delta`).

        **Phase two**: one attribute assignment installs the new
        :class:`ClusterGeneration`.  Scattered reads pin the bundle at
        entry, so a fan-out sees all-old or all-new shard state — never
        a blend spanning two generations.  Routed reads touch a single
        shard, whose own publish is equally atomic.

        A publish with nothing staged and nothing open is a no-op that
        returns the current generation id.

        Returns:
            The cluster generation id now being served.

        Raises:
            ConfigError: If the cluster serves a plain frozen store.
        """
        if self._source is None:
            raise ConfigError(
                "publish() needs a cluster over a GenerationalStore; this "
                "cluster serves a frozen store (generation 0 forever)"
            )
        with self._publish_lock:
            old = self._cgen
            generation_id = self._source.publish()
            if generation_id == old.generation_id:
                return generation_id
            view = self._source.current()
            # Phase one — route the delta to the shards (their open
            # deltas; readers still see the old shard generations).  The
            # delta is built as one op list per shard, each in global
            # insertion order — fresh nodes first, then each relation
            # behind a ghost replica of its endpoint owned elsewhere, if
            # any — and applied by the shard pool
            # (ShardHandler.apply_delta, in-process or in the worker).
            fresh_nodes = list(view.nodes_since(old.node_count))
            fresh_relations = list(view.relations_since(old.relation_count))
            shard_ops: list[list[tuple[str, Any]]] = [
                [] for _ in range(self.n_shards)
            ]
            n_shards = self.n_shards
            owned = list(self._shard_owned)
            for node in fresh_nodes:
                home = owner_of(node.id, n_shards)
                if home is None:
                    for ops in shard_ops:
                        ops.append(("node", node))
                else:
                    shard_ops[home].append(("node", node))
                    owned[home] += 1
            for home, ghost, relation in place_relations(
                fresh_relations, partial(owner_of, n_shards=n_shards), n_shards
            ):
                ops = shard_ops[home]
                if ghost is not None:
                    ops.append(("ghost", view.get(ghost)))
                ops.append(("relation", relation))
            dense_indexes = extended_indexes(
                {CONCEPT_INDEX: old.search_index, **old.dense_indexes},
                view,
                old.store,
                fresh_doc_vector(self._reranker),
            )
            search_index = dense_indexes.pop(CONCEPT_INDEX)
            projections = split_index(search_index, n_shards)
            dense_rows = _dense_rows(dense_indexes, n_shards, old.dense_indexes)
            pins = tuple(
                self._pool.apply_delta(
                    shard, generation_id, shard_ops[shard], projections[shard], rows
                )
                for shard, rows in enumerate(dense_rows)
            )
            self._shard_owned = tuple(owned)
            # Phase two — a single assignment installs the whole bundle.
            self._cgen = _bundle(generation_id, view, search_index, dense_indexes, pins)
            return generation_id

    # ------------------------------------------------------------- endpoints
    def items_for_concept(self, concept_id: str, top_k: int | None = None) -> tuple:
        """Best items for a concept, answered by its owner shard."""
        return self._route("items_for_concept", concept_id, concept_id, top_k)

    def concepts_for_item(self, item_id: str) -> tuple:
        """Concepts an item participates in, from the item's owner shard."""
        return self._route("concepts_for_item", item_id, item_id)

    def interpretation(self, concept_id: str) -> tuple:
        """Primitive senses of a concept, from its owner shard."""
        return self._route("interpretation", concept_id, concept_id)

    def hypernyms(self, primitive_id: str, transitive: bool = False) -> tuple:
        """Hypernym expansion; the taxonomy is replicated, shard 0 answers."""
        return self._route("hypernyms", primitive_id, primitive_id, transitive)

    def search(self, text: str, k: int | None = None) -> tuple:
        """Text -> concepts, scattered to every shard and merged globally."""
        with metered_errors(self._metrics, "search"):
            if k is not None and k <= 0:
                raise ConfigError(f"search k must be positive, got {k}")
            k = k if k is not None else self._service_config.search_top_k
            tokens = tuple(text.split())
            cgen = self._cgen
            return serve_cached(
                self,
                "search",
                (tokens, k),
                lambda: self._search_scattered(tokens, k, cgen),
                cgen,
                self._admitted,
            )

    def tag(self, text: str) -> tuple:
        """Concept tagging; the model and primitive layer are replicated."""
        with metered_errors(self._metrics, "tag"):
            cgen = self._cgen
            self._count_calls((0,))
            tokens = tuple(text.split())
            return serve_cached(
                self,
                "tag",
                (tokens,),
                lambda: self._pool.call(0, "tag", text),
                cgen,
                self._admitted,
            )

    def items_for_concept_reranked(
        self, concept_id: str, top_k: int | None = None
    ) -> tuple:
        """Reranked items: pool gathered globally, scored on owner shards.

        Coalesced: concurrent identical requests share one computation.
        """
        with metered_errors(self._metrics, "items_for_concept_reranked"):
            reranker = require_model(
                self._reranker, RERANKER_MODEL, "items_for_concept_reranked"
            )
            if top_k is not None and top_k <= 0:
                raise ConfigError(
                    f"items_for_concept_reranked top_k must be positive, got {top_k}"
                )
            cgen = self._cgen
            shard = self._shard_for(concept_id)
            self._count_calls((shard,))
            # The existence/layer precheck reads the pinned global view
            # under either executor: a concept is there exactly when its
            # owner shard has it, so the errors are the shard's.
            require_layer(cgen.store, concept_id, ECOMMERCE_PREFIX)
            return serve_cached(
                self,
                "items_for_concept_reranked",
                (concept_id, top_k),
                lambda: verify_pool(
                    self._service_config,
                    reranker,
                    tuple(cgen.store.get(concept_id).tokens),
                    DENSE_ITEM_INDEX,
                    partial(self._graph_arm, shard, concept_id, cgen=cgen),
                    partial(self._dense_stage, cgen),
                    cgen.store,
                    self._owner_scores,
                    top_k,
                ),
                cgen,
                self._admitted,
            )

    def search_reranked(self, text: str, k: int | None = None) -> tuple:
        """Reranked search: pool gathered globally, scored on owner shards.

        Coalesced: concurrent identical requests share one computation.
        """
        with metered_errors(self._metrics, "search_reranked"):
            reranker = require_model(self._reranker, RERANKER_MODEL, "search_reranked")
            if k is not None and k <= 0:
                raise ConfigError(f"search_reranked k must be positive, got {k}")
            k = k if k is not None else self._service_config.search_top_k
            tokens = tuple(text.split())
            cgen = self._cgen
            return serve_cached(
                self,
                "search_reranked",
                (tokens, k),
                lambda: verify_pool(
                    self._service_config,
                    reranker,
                    tokens,
                    DENSE_CONCEPT_INDEX,
                    partial(self._search_scattered, tokens, cgen=cgen),
                    partial(self._dense_stage, cgen),
                    cgen.store,
                    self._owner_scores,
                    k,
                ),
                cgen,
                self._admitted,
            )

    def batch(
        self,
        requests: Iterable[Sequence],
        *,
        on_error: str = "raise",
        workers: int | None = None,
    ) -> list:
        """Answer many queries in one call; same contract as the service.

        In envelope mode a shed sub-query comes back as a
        :class:`~repro.serving.BatchResult` with ``error_type ==
        "OverloadedError"`` — ``unwrap()`` re-raises it as the original
        type, so callers can retry just the shed requests.

        Raises:
            ConfigError: On an unknown endpoint (``"raise"`` mode), an
                unknown ``on_error`` policy, or non-positive ``workers``.
        """
        return run_batch(self._handlers, requests, on_error=on_error, workers=workers)

    # --------------------------------------------------------- introspection
    @property
    def n_shards(self) -> int:
        """Number of shard services."""
        return self.config.n_shards

    @property
    def store(self) -> AliCoCoStore:
        """The served global view (the frozen store, or the pinned
        generation view of an advancing cluster)."""
        return self._cgen.store

    @property
    def source(self) -> GenerationalStore | None:
        """The growable source store behind an advancing cluster.

        Grow it through its ``create_*``/``add_*`` API and call
        :meth:`publish` to advance every shard; ``None`` for a cluster
        over a plain frozen store.
        """
        return self._source

    @property
    def generation_id(self) -> int:
        """The cluster generation currently being served (0 when frozen)."""
        return self._cgen.generation_id

    @property
    def services(self) -> tuple[AliCoCoService, ...]:
        """The in-process shard services, in shard order (empty under
        the process executor — shard state lives in the workers)."""
        return self._services

    @property
    def worker_pool(self) -> LocalShardPool | ProcessShardPool:
        """The shard pool the cluster's verbs go through.

        Under the process executor it is the worker pool, exposed for
        health checks (``ping_all``), worker stats, and crash-recovery
        tests that kill a live worker process.
        """
        return self._pool

    @property
    def endpoints(self) -> tuple[str, ...]:
        """Names accepted by :meth:`batch`."""
        return tuple(self._handlers)

    @property
    def models(self) -> tuple[str, ...]:
        """Bundle names of the models the cluster is serving."""
        return tuple(served_models(self._tagger, self._reranker))

    def stats(self) -> ClusterStats:
        """Current cluster statistics (fan-out, coalescing, admission).

        Cache counters come from one locked
        :meth:`~repro.serving.cache.LRUCache.counters` snapshot, never
        from separate attribute reads that a concurrent request could
        tear apart.
        """
        cgen = self._cgen
        with self._balance_lock:
            shard_calls = tuple(self._shard_calls)
        cache_counters = self._cache.counters() if self._cache else CacheCounters()
        shard_stats = []
        for shard in range(self.n_shards):
            try:
                shard_stats.append(self._pool.call(shard, "stats"))
            except ShardUnavailableError:
                continue
        return ClusterStats(
            n_shards=self.n_shards,
            nodes=cgen.node_count,
            relations=cgen.relation_count,
            cache_entries=len(self._cache) if self._cache else 0,
            cache_capacity=self._cache.capacity if self._cache else 0,
            cache_evictions=cache_counters.evictions,
            endpoints=tuple(
                metrics.snapshot(endpoint)
                for endpoint, metrics in self._metrics.items()
            ),
            coalescer=self._coalescer.stats(),
            admission=self._admission.stats(),
            shard_calls=shard_calls,
            shards=tuple(shard_stats),
            generation_id=cgen.generation_id,
            executor=self.config.executor,
            shard_owned=self._shard_owned,
            workers=self._pool.stats(),
        )

    def close(self) -> None:
        """Shut down the shard pool.

        Under the process executor this joins every worker process and
        removes the private bootstrap-snapshot directory — after close
        the cluster leaves no child processes behind.
        """
        self._pool.close()

    def __enter__(self) -> "AliCoCoCluster":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------- internals
    def _shard_for(self, node_id: str) -> int:
        """The shard answering point queries for ``node_id``.

        Partitioned ids go to their hash owner; replicated-layer ids (and
        malformed ids, which no shard can know — the owner's store raises
        the same ``NodeNotFoundError`` the monolithic service would) go
        to shard 0.
        """
        try:
            partitioned = is_partitioned(node_id)
        except ValueError:
            partitioned = False
        return shard_of(node_id, self.n_shards) if partitioned else 0

    def _count_calls(self, shards: Iterable[int]) -> None:
        """Charge one sub-request to each listed shard's balance counter."""
        with self._balance_lock:
            for shard in shards:
                self._shard_calls[shard] += 1

    def _route(self, endpoint: str, node_id: str, *args: Any) -> tuple:
        """A routed endpoint: ``args`` (also its cache key) answered by
        ``node_id``'s owner shard, through the shard service's public,
        cached endpoint."""
        with metered_errors(self._metrics, endpoint):
            cgen = self._cgen
            shard = self._shard_for(node_id)
            self._count_calls((shard,))
            return serve_cached(
                self,
                endpoint,
                args,
                lambda: self._pool.call(shard, endpoint, *args),
                cgen,
                self._admitted,
            )

    def _arm_scatter(self, verb: str, cgen: ClusterGeneration, *args: Any) -> list:
        """One pinned verb on every shard, results in shard order: each
        shard gets its pin from ``cgen``, then ``args``."""
        shards = range(len(cgen.shards))
        self._count_calls(shards)
        results = self._pool.scatter(
            {shard: (verb, (cgen.shards[shard], *args)) for shard in shards}
        )
        return [results[shard] for shard in shards]

    def _admitted(
        self, endpoint: str, cache_key: tuple, compute: Callable[[], Any]
    ) -> Any:
        """A cache miss's path (see :func:`serve_cached`): coalesce ->
        admission -> compute.

        The cache sits in front, so a hot repeat never costs a slot; the
        coalescer sits *outside* admission so N concurrent duplicates
        consume one slot (a leader is always admitted-or-shed, never
        blocked on its own joiners — no deadlock by construction).
        Joiners count as cache misses: their latency includes the wait
        for the leader, which is exactly what a caller observed.
        """

        def admitted() -> Any:
            with self._admission.admit():
                return compute()

        if endpoint in COALESCED_ENDPOINTS:
            return self._coalescer.submit(cache_key, admitted)
        return admitted()

    # ----------------------------------------------------- scattered queries
    # Every scattered computation receives the pinned ClusterGeneration
    # and reads shard stores, indexes and position maps only from it —
    # a concurrent publish() can therefore never hand one fan-out a mix
    # of two generations.
    def _search_scattered(
        self, tokens: tuple[str, ...], k: int, cgen: ClusterGeneration
    ) -> tuple:
        """Global BM25 ranking from per-shard projections (bit-identical)."""
        if not tokens or cgen.search_index is None:
            return ()
        arms = self._arm_scatter("search_arm", cgen, tokens, k)
        return merge_ranked(arms, cgen.positions[CONCEPT_INDEX], k)

    def _graph_arm(
        self, shard: int, concept_id: str, k: int, cgen: ClusterGeneration
    ) -> tuple:
        """The graph's association ranking, from the concept's owner
        shard: every item->concept edge lives there, in global insertion
        order, so the ranking is bit-identical."""
        return self._pool.call(shard, "items_arm", cgen.shards[shard], concept_id, k)

    def _dense_stage(
        self,
        cgen: ClusterGeneration,
        name: str,
        tokens: tuple[str, ...],
        k: int,
        query_state: Any,
    ) -> Callable[[], tuple] | None:
        """The dense arm of :func:`verify_pool` over every shard's rows of
        the global index ``name``, merged, or ``None`` when the population
        has no index or the query no tokens.  The query vector is read
        from ``query_state`` once, parent-side, and the same vector goes
        to every shard."""
        if not tokens or cgen.dense_indexes.get(name) is None:
            return None

        def arm() -> tuple:
            vector = dense_query_vector(self._reranker, tokens, encoding=query_state)
            arms = self._arm_scatter("dense_arm", cgen, name, vector, k)
            return merge_ranked(arms, cgen.positions[name], k)

        return arm

    def _owner_scores(
        self,
        reranker: Module,
        query_tokens: tuple[str, ...],
        node_ids: Sequence[str],
        texts: Sequence[list[str]],
        query_state: Any,
    ) -> list[float]:
        """Pool scores, each candidate scored on the shard that owns it.

        Each owner shard scores through its doc-encoding cache, and
        per-candidate scores are pool-composition independent, so the
        scores equal the single service's.  Every shard gets
        ``AliCoCoService._pool_scores`` arguments: the query tokens, the
        request's one ``query_state`` (encoded once, parent-side), and
        the ids it owns with their texts.  The whole request is **one
        batched scatter**: a single verb per owner shard carries every
        candidate that shard owns (under the process executor the
        workers score their batches concurrently).  Shards score with
        their own copy of the cluster's ``reranker``.
        """
        groups: dict[int, list[int]] = {}
        for position, node_id in enumerate(node_ids):
            groups.setdefault(shard_of(node_id, self.n_shards), []).append(position)
        calls = {
            shard: (
                query_tokens,
                [node_ids[position] for position in positions],
                [texts[position] for position in positions],
                query_state,
            )
            for shard, positions in sorted(groups.items())
        }
        self._count_calls(calls)
        results = self._pool.scatter(
            {shard: ("pool_scores", args) for shard, args in calls.items()}
        )
        scores = [0.0] * len(node_ids)
        for shard, shard_scores in results.items():
            for position, score in zip(groups[shard], shard_scores):
                scores[position] = score
        return scores


def _dense_rows(
    indexes: dict[str, BruteForceDense | None],
    n_shards: int,
    held: dict[str, BruteForceDense | None],
) -> list[dict[str, BruteForceDense | None]]:
    """Each shard's rows of each global dense index past the rows of
    ``held``'s index of that population, which the shards hold already
    (:func:`~repro.serving.shard.split_index`)."""
    rows: list[dict[str, BruteForceDense | None]] = [{} for _ in range(n_shards)]
    for name, index in indexes.items():
        start = len(held[name]) if held.get(name) is not None else 0
        for shard_rows, projection in zip(rows, split_index(index, n_shards, start)):
            shard_rows[name] = projection
    return rows


def _bundle(
    generation_id: int,
    view: Any,
    search_index: BM25Index | None,
    dense_indexes: dict[str, BruteForceDense | None],
    shards: tuple[Any, ...],
) -> ClusterGeneration:
    """The serving bundle of ``view``, its global indexes and shard pins.

    Each index's merge tie-break is its own fit order — the order a
    single index breaks score ties by.
    """
    indexes = {CONCEPT_INDEX: search_index, **dense_indexes}
    return ClusterGeneration(
        generation_id=generation_id,
        store=view,
        search_index=search_index,
        dense_indexes=dense_indexes,
        positions={
            name: {doc_id: position for position, doc_id in enumerate(index.doc_ids)}
            for name, index in indexes.items()
            if index is not None
        },
        shards=shards,
        node_count=len(view),
        relation_count=sum(view.count_relations(kind) for kind in RelationKind),
    )
