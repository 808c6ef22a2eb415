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

A cluster snapshot is one ordinary snapshot file: the global store and
global concept index plus *per-shard* index states (``…@shard{i}``) and
a ``cluster`` meta record pinning the shard count.  Loading with the
same shard count rehydrates every shard index without re-fitting;
loading with a different count re-splits deterministically from the
global state.

**Generation advancement.**  A cluster over a
:class:`~repro.kg.generations.GenerationalStore` is not pinned forever:
:meth:`AliCoCoCluster.publish` seals the source store's open delta and
advances every shard in a **two-phase** publish.  Phase one grows each
shard's own generational store (delta nodes route through
:func:`~repro.serving.shard.shard_of`, relations land on their owner
shards with ghost replicas, all invisible to readers), extends the
global concept index, and installs each shard's next generation; phase
two installs one immutable :class:`ClusterGeneration` bundle — global
view, global index, per-shard projections, merge position maps and the
per-shard :class:`~repro.serving.ServingGeneration` pins — with a
single attribute assignment.  Scattered reads pin the bundle at entry
and read only from it, so a fan-out never mixes two generations:
every answer is a whole generation, before or after, never a blend.

**Executors.**  ``ClusterConfig(executor="thread")`` (the default) runs
every shard service in-process — simple, but per-shard work is pure
Python, so fan-out serializes on the GIL and adding shards buys almost
no throughput.  ``executor="process"`` moves each shard into its own
worker process (:mod:`repro.serving.procpool`): the parent writes one
bootstrap snapshot per shard, spawns a worker over each, and serves
the same eight endpoints by routing point queries and scattering
batched arm requests over a compact framed RPC
(:mod:`repro.serving.rpc`).  Answers are bit-identical to the thread
executor's — workers serve the same stores, the same index projections
(global corpus statistics) and the same models — while scattered
sub-requests compute on separate interpreters in parallel, so the
throughput-vs-shard-count curve actually bends upward
(``benchmarks/bench_cluster.py`` gates it).  Cache → coalesce → admit
ordering stays in the parent either way, publish() ships its delta to
workers over the same RPC, and a crashed worker restarts from its
snapshot plus the replayed delta log — or, past the restart budget,
degrades to a typed :class:`~repro.errors.ShardUnavailableError` while
healthy shards keep answering.
"""

from __future__ import annotations

import shutil
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from ..concepts.tagging import ConceptTagger
from ..errors import ConfigError, DuplicateNodeError, ShardUnavailableError
from ..kg.generations import GenerationalStore
from ..kg.ids import ECOMMERCE_PREFIX, ITEM_PREFIX, layer_of
from ..kg.relations import RelationKind
from ..kg.serialize import load_snapshot, save_generations, save_snapshot
from ..kg.store import AliCoCoStore, gc_paused
from ..matching.bm25 import BM25Index
from ..ml.module import Module
# Unused here since fusion runs in service.first_stage, but perfbench
# wraps cluster.rrf_fuse by name until its next benchmark change.
from ..retrieval import rrf_fuse  # noqa: F401
from .admission import AdmissionController, AdmissionStats
from .cache import CacheCounters, LRUCache
from .coalesce import Coalescer, CoalescerStats
from .models import dense_query_vector
from .procpool import ProcessShardPool, ProcPoolStats, ShardWorkerSpec, snapshot_dir_for
from .service import (
    CONCEPT_INDEX,
    DENSE_CONCEPT_INDEX,
    DENSE_ITEM_INDEX,
    RERANKER_MODEL,
    AliCoCoService,
    ServiceConfig,
    ServingGeneration,
    dense_states_of,
    endpoint_handlers,
    extend_concept_index,
    fit_concept_index,
    metered_errors,
    model_bundles,
    open_snapshot,
    prepare_models,
    require_layer,
    require_model,
    run_batch,
    save_shard_snapshot,
    served_models,
    serve_cached,
    shard_dense_indexes,
    verify_pool,
)
from .shard import (
    is_partitioned,
    merge_ranked,
    owned_counts,
    owner_map,
    owner_of,
    place_relations,
    shard_of,
    split_concept_index,
    split_store,
)
from .stats import EndpointStats, ServiceStats, endpoint_table

#: Snapshot index-state name of the cluster meta record (shard count).
CLUSTER_META = "cluster"

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
        fanout_workers: Thread-pool size for scatter calls; ``None``
            (default) fans out serially — per-shard work is pure Python
            under the GIL, so threads buy nothing locally, but the knob
            models the parallel fan-out a multi-process deployment gets.
        executor: ``"thread"`` (default) serves every shard in-process;
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
    fanout_workers: int | None = None
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
        if self.fanout_workers is not None and self.fanout_workers <= 0:
            raise ConfigError(
                f"fanout_workers must be positive, got {self.fanout_workers}"
            )
        # max_inflight / max_queue_depth / max_queue_wait_ms are validated
        # by the AdmissionController built from them.


@dataclass(frozen=True)
class ClusterGeneration:
    """One immutable cluster-wide serving state.

    The cluster's counterpart of :class:`~repro.serving.ServingGeneration`:
    everything a scattered read touches — the global view, the global
    concept index, the per-shard projections, the merge tie-break maps
    and each shard's pinned generation — rides one frozen bundle behind
    one attribute.  Requests pin the current instance at entry, so a
    concurrent :meth:`AliCoCoCluster.publish` can never show a fan-out
    two different generations (phase two of the publish installs the
    next bundle with a single atomic assignment).

    Attributes:
        generation_id: The source-store generation this bundle serves.
        store: The pinned global read view.
        search_index: The global BM25 concept index, or ``None``.
        shard_search_indexes: Per-shard projections of ``search_index``
            (global corpus statistics, shard-local postings).
        concept_position / item_position: Node id -> global fit position
            maps for deterministic scatter merges
            (:func:`~repro.serving.shard.merge_ranked`).
        shards: Each shard service's pinned
            :class:`~repro.serving.ServingGeneration`, in shard order.
        node_count / relation_count: Global sizes this bundle covers;
            the next publish routes exactly the rows beyond these counts
            (count slicing survives source-store compaction, which
            reshapes segments but never reorders reads).
        concept_count: E-commerce concepts covered by ``search_index``;
            the next publish extends the index with the nodes past it.
        shards: Empty under the process executor — shard state lives in
            the worker processes, pinned there by ``generation_id``.
        dense_presence: Process executor only — dense index names
            present on at least one worker (reported in the boot hello
            and after every shipped delta); the thread executor reads
            presence off ``shards`` directly.
    """

    generation_id: int
    store: Any
    search_index: BM25Index | None
    shard_search_indexes: tuple[BM25Index | None, ...]
    concept_position: dict[str, int]
    item_position: dict[str, int]
    shards: tuple[ServingGeneration, ...]
    node_count: int
    relation_count: int
    concept_count: int
    dense_presence: tuple[str, ...] = ()


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
        search_index: A fitted *global* concept index to reuse; fitted
            from the store when omitted.  Shards always serve
            projections of this index, never their own fits.
        shard_search_indexes: Pre-projected per-shard concept indexes
            (snapshot warm start); derived from the global index when
            omitted.
        tagger / reranker: Trained models, shared read-only by every
            shard service.
        shard_dense_states: Per-shard dense index states to warm-start
            from, ``{shard id: {index name: state}}``.
        dense_index_states: *Global* dense index states (a single-service
            snapshot's); used when no per-shard states are given.  Shards
            then serve projections of the global index, rehydrated from
            a brute-force state over the store's documents or fitted once
            over the store
            (:func:`~repro.serving.service.shard_dense_indexes`).
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
        search_index: BM25Index | None = None,
        shard_search_indexes: Sequence[BM25Index | None] | None = None,
        tagger: ConceptTagger | None = None,
        reranker: Module | None = None,
        shard_dense_states: dict[int, dict[str, Any]] | None = None,
        dense_index_states: dict[str, Any] | None = None,
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
        search_index = (
            search_index if search_index is not None else fit_concept_index(view)
        )
        if shard_search_indexes is None:
            shard_search_indexes = split_concept_index(search_index, n_shards)
        elif len(shard_search_indexes) != n_shards:
            raise ConfigError(
                f"expected {n_shards} shard search indexes, "
                f"got {len(shard_search_indexes)}"
            )
        dense_states = shard_dense_states or {}
        initial_generation = view.generation_id if self._generational else 0
        # The prepared (fitted-checked, eval-mode) models; shared by
        # every shard, referenced here for query-side encodings.
        self._tagger, self._reranker = prepare_models(
            self._service_config, tagger, reranker
        )
        owners = owner_map(view, n_shards)
        shard_stores = split_store(view, n_shards, owners)
        # Without per-shard states, shards serve projections of one
        # global dense index (empty dicts: each shard fits its own).
        shard_dense = (
            [{} for _ in shard_stores]
            if dense_states
            else shard_dense_indexes(
                view,
                shard_stores,
                self._service_config,
                self._reranker,
                dense_index_states or {},
            )
        )
        self._pool: ProcessShardPool | None = None
        self._worker_dir: Path | None = None
        self._owns_worker_dir = False
        if self.config.executor == "process":
            # The parent holds no shard services: it writes one
            # bootstrap snapshot per shard store, embedding its dense
            # index states, and spawns a worker process over each.
            # Workers rebuild dense indexes from the snapshot-replayed
            # stores (insertion order preserved, fits deterministic)
            # only where no state is embedded — so their answers are
            # bit-identical to in-process shards.
            self._services: list[AliCoCoService] = []
            self._worker_dir = snapshot_dir_for(self.config.worker_dir)
            self._owns_worker_dir = self.config.worker_dir is None
            try:
                specs = []
                for shard, shard_store in enumerate(shard_stores):
                    path = self._worker_dir / f"shard-{shard}.snap"
                    states = dense_states.get(shard) or {
                        name: index.to_state()
                        for name, index in shard_dense[shard].items()
                        if index is not None
                    }
                    save_shard_snapshot(
                        path,
                        shard_store,
                        search_index=shard_search_indexes[shard],
                        dense_states=states,
                        config_fingerprint=config_fingerprint,
                    )
                    specs.append(
                        ShardWorkerSpec(
                            shard_id=shard,
                            snapshot_path=str(path),
                            service_config=self._service_config,
                            tagger=tagger,
                            reranker=reranker,
                            generational=self._generational,
                            cluster_generation_id=initial_generation,
                        )
                    )
                self._pool = ProcessShardPool(
                    specs,
                    max_restarts=self.config.max_worker_restarts,
                    reservoir_capacity=self.config.reservoir_capacity,
                    seed=self.config.seed,
                )
            except BaseException:
                self._cleanup_worker_dir()
                raise
            shard_gens: tuple[ServingGeneration, ...] = ()
            dense_presence = self._pool.dense_presence()
        else:
            # Shards of an advancing cluster get generational stores of
            # their own, so publish() can grow them behind their readers;
            # frozen clusters keep the historical frozen shard stores.
            # Building a shard service is a bulk build (its per-shard
            # indexes), so the collector is paused, as for the split.
            with gc_paused():
                self._services = [
                    AliCoCoService(
                        (
                            GenerationalStore(shard_store)
                            if self._generational
                            else shard_store
                        ),
                        config=self._service_config,
                        search_index=shard_search_indexes[shard],
                        fit_search_index=False,
                        tagger=self._tagger,
                        reranker=self._reranker,
                        dense_index_states=dense_states.get(shard),
                        dense_indexes=shard_dense[shard],
                        config_fingerprint=config_fingerprint,
                    )
                    for shard, shard_store in enumerate(shard_stores)
                ]
            shard_gens = tuple(service._gen for service in self._services)
            dense_presence = ()
        self._publish_lock = threading.Lock()
        self._shard_owned = tuple(owned_counts(owners.values(), n_shards))
        self._cgen = ClusterGeneration(
            generation_id=initial_generation,
            store=view,
            search_index=search_index,
            shard_search_indexes=tuple(shard_search_indexes),
            # Global tie-break orders for scatter merges: BM25 breaks
            # score ties by fit position, the dense backends by fit
            # position over the store walk — both are subsequences of
            # these maps, so the relative order (all a tie-break needs)
            # is preserved.
            concept_position=self._positions_of(search_index),
            item_position={
                node.id: position
                for position, node in enumerate(view.nodes(ITEM_PREFIX))
            },
            shards=shard_gens,
            node_count=len(view),
            relation_count=view.stats().relations_total,
            concept_count=view.count_nodes(ECOMMERCE_PREFIX),
            dense_presence=dense_presence,
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
        self._fanout = (
            ThreadPoolExecutor(max_workers=self.config.fanout_workers)
            if self.config.fanout_workers
            else None
        )
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
        """Warm-start a cluster from one snapshot file.

        A snapshot written by :meth:`save_snapshot` with the *same* shard
        count rehydrates every per-shard index (BM25 projections and
        dense indexes) without re-fitting; any other snapshot — a
        single-service one, or a cluster one with a different shard
        count — re-splits deterministically from the global store and
        index, landing on identical placement, and projects each shard's
        dense indexes from the snapshot's global ones (fitting a global
        one first when its state is absent or not ``bruteforce``).  Model
        bundles restore exactly as in :meth:`AliCoCoService.from_snapshot`.
        The warm start is one bulk build, so the collector is paused for
        all of it (:func:`~repro.kg.store.gc_paused`).

        Raises:
            DataError: If the snapshot is malformed, fingerprint-
                mismatched, or a requested model bundle is absent or
                invalid.
        """
        with gc_paused():
            config = config or ClusterConfig()
            snapshot = load_snapshot(path)
            store, search_index = open_snapshot(
                snapshot, expected_fingerprint, tagger, reranker
            )
            meta = snapshot.index_states.get(CLUSTER_META)
            shard_search_indexes = None
            shard_dense_states: dict[int, dict[str, Any]] = {}
            if isinstance(meta, dict) and meta.get("n_shards") == config.n_shards:
                shard_search_indexes = []
                for shard in range(config.n_shards):
                    state = snapshot.index_states.get(f"{CONCEPT_INDEX}@shard{shard}")
                    shard_search_indexes.append(
                        BM25Index.from_state(state) if state is not None else None
                    )
                    dense = {
                        name: snapshot.index_states[f"{name}@shard{shard}"]
                        for name in (DENSE_CONCEPT_INDEX, DENSE_ITEM_INDEX)
                        if f"{name}@shard{shard}" in snapshot.index_states
                    }
                    if dense:
                        shard_dense_states[shard] = dense
            return cls(
                store,
                config=config,
                service_config=service_config,
                search_index=search_index,
                shard_search_indexes=shard_search_indexes,
                tagger=tagger,
                reranker=reranker,
                shard_dense_states=shard_dense_states or None,
                dense_index_states=dense_states_of(snapshot.index_states),
                config_fingerprint=snapshot.header.config_fingerprint,
            )

    def save_snapshot(self, path: str | Path) -> int:
        """Persist the cluster as one ordinary snapshot file.

        The global store, global concept index and model bundles are
        written exactly as a single service would write them — so a
        plain :meth:`AliCoCoService.from_snapshot` can serve a cluster
        snapshot — plus one ``…@shard{i}`` index state per shard index
        and a ``cluster`` meta state pinning the shard count for
        warm-start validation.  A cluster over a generational store
        writes the source's generation structure (sealed delta segments
        and their numbering), so a reload resumes at the saved
        generation and can keep advancing.  Per-shard index states are
        embedded only when the served bundle is aligned with the
        source's published generation (i.e. after a :meth:`publish`);
        otherwise the reload re-splits deterministically.

        Returns:
            Number of bytes written.
        """
        cgen = self._cgen
        index_states: dict[str, Any] = {CLUSTER_META: {"n_shards": self.n_shards}}
        if cgen.search_index is not None:
            index_states[CONCEPT_INDEX] = cgen.search_index.to_state()
        aligned = (
            self._source is None
            or self._source.current().generation_id == cgen.generation_id
        )
        if aligned:
            for shard in range(self.n_shards):
                projection = cgen.shard_search_indexes[shard]
                if projection is not None:
                    index_states[f"{CONCEPT_INDEX}@shard{shard}"] = (
                        projection.to_state()
                    )
                for name, state in self._shard_dense_states(shard, cgen).items():
                    index_states[f"{name}@shard{shard}"] = state
        saver = save_snapshot if self._source is None else save_generations
        return saver(
            cgen.store if self._source is None else self._source,
            path,
            config_fingerprint=self._fingerprint,
            index_states=index_states,
            model_states=model_bundles(self._tagger, self._reranker),
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
        as ghost replicas.  The global concept index is extended
        (``BM25Index.extended``, refit fallback), fresh per-shard
        projections are derived from it, and each grown shard publishes
        its next generation with its new projection.

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
            # any — and either applied to the in-process shard stores or
            # shipped to the workers over RPC, byte-for-byte the same
            # sequence either way.
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
            search_index = extend_concept_index(
                old.search_index, view, old.concept_count
            )
            projections = split_concept_index(search_index, self.n_shards)
            item_position = dict(old.item_position)
            for node in fresh_nodes:
                if layer_of(node.id) == ITEM_PREFIX:
                    item_position[node.id] = len(item_position)
            # A shard without a delta no-ops its publish and keeps its
            # old bundle — correct for its store and dense indexes (both
            # unchanged), while its *lexical* arm always comes from the
            # fresh projections below (global corpus statistics moved
            # even if the shard's own documents did not).
            if self._pool is not None:
                for shard, ops in enumerate(shard_ops):
                    projection = projections[shard]
                    self._pool.apply_delta(
                        shard,
                        generation_id,
                        ops,
                        projection.to_state() if projection is not None else None,
                    )
                shard_gens: tuple[ServingGeneration, ...] = ()
                dense_presence = self._pool.dense_presence()
            else:
                for service, ops, projection in zip(
                    self._services, shard_ops, projections
                ):
                    # Nodes and ghosts in op order, then the relations as
                    # one batch: a relation needs only its endpoints, which
                    # precede it, so both insertion orders are unchanged.
                    shard_store = service.store
                    relations = []
                    for kind, payload in ops:
                        if kind == "node":
                            shard_store.add_node(payload)
                        elif kind == "ghost":
                            try:
                                shard_store.add_node(payload)
                            except DuplicateNodeError:
                                pass
                        else:
                            relations.append(payload)
                    shard_store.add_relations(relations)
                    service.publish(search_index=projection)
                shard_gens = tuple(service._gen for service in self._services)
                dense_presence = ()
            self._shard_owned = tuple(owned)
            # Phase two — a single assignment installs the whole bundle.
            self._cgen = ClusterGeneration(
                generation_id=generation_id,
                store=view,
                search_index=search_index,
                shard_search_indexes=tuple(projections),
                concept_position=self._positions_of(search_index),
                item_position=item_position,
                shards=shard_gens,
                node_count=len(view),
                relation_count=sum(view.count_relations(kind) for kind in RelationKind),
                concept_count=view.count_nodes(ECOMMERCE_PREFIX),
                dense_presence=dense_presence,
            )
            if self._cache is not None:
                self._cache.begin_generation(f"gen-{generation_id}")
            return generation_id

    @staticmethod
    def _positions_of(index: BM25Index | None) -> dict[str, int]:
        """Doc id -> global fit position over an index's document walk."""
        if index is None:
            return {}
        return {doc_id: position for position, doc_id in enumerate(index.doc_ids)}

    # ------------------------------------------------------------- endpoints
    def items_for_concept(self, concept_id: str, top_k: int | None = None) -> tuple:
        """Best items for a concept, answered by its owner shard."""
        with metered_errors(self._metrics, "items_for_concept"):
            cgen = self._cgen
            shard = self._shard_for(concept_id)
            self._count_calls((shard,))
            return serve_cached(
                self,
                "items_for_concept",
                (concept_id, top_k),
                lambda: self._routed(shard, "items_for_concept", concept_id, top_k),
                cgen,
                self._admitted,
            )

    def concepts_for_item(self, item_id: str) -> tuple:
        """Concepts an item participates in, from the item's owner shard."""
        with metered_errors(self._metrics, "concepts_for_item"):
            cgen = self._cgen
            shard = self._shard_for(item_id)
            self._count_calls((shard,))
            return serve_cached(
                self,
                "concepts_for_item",
                (item_id,),
                lambda: self._routed(shard, "concepts_for_item", item_id),
                cgen,
                self._admitted,
            )

    def interpretation(self, concept_id: str) -> tuple:
        """Primitive senses of a concept, from its owner shard."""
        with metered_errors(self._metrics, "interpretation"):
            cgen = self._cgen
            shard = self._shard_for(concept_id)
            self._count_calls((shard,))
            return serve_cached(
                self,
                "interpretation",
                (concept_id,),
                lambda: self._routed(shard, "interpretation", concept_id),
                cgen,
                self._admitted,
            )

    def hypernyms(self, primitive_id: str, transitive: bool = False) -> tuple:
        """Hypernym expansion; the taxonomy is replicated, shard 0 answers."""
        with metered_errors(self._metrics, "hypernyms"):
            cgen = self._cgen
            shard = self._shard_for(primitive_id)
            self._count_calls((shard,))
            return serve_cached(
                self,
                "hypernyms",
                (primitive_id, transitive),
                lambda: self._routed(shard, "hypernyms", primitive_id, transitive),
                cgen,
                self._admitted,
            )

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
                lambda: self._routed(0, "tag", text),
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
        return tuple(self._services)

    @property
    def worker_pool(self) -> ProcessShardPool | None:
        """The process executor's worker pool (``None`` under threads).

        Exposed for health checks (``ping_all``), worker stats, and
        crash-recovery tests that kill a live worker process.
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
        if self._pool is not None:
            shard_stats = []
            for shard in range(self.n_shards):
                try:
                    shard_stats.append(self._pool.call(shard, "stats"))
                except ShardUnavailableError:
                    continue
            workers = self._pool.stats()
        else:
            shard_stats = [service.stats() for service in self._services]
            workers = None
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
            workers=workers,
        )

    def close(self) -> None:
        """Shut down the executors (fan-out threads and worker processes).

        Under the process executor this joins every worker process and
        removes the private bootstrap-snapshot directory — after close
        the cluster leaves no child processes behind.
        """
        if self._fanout is not None:
            self._fanout.shutdown(wait=True)
        if self._pool is not None:
            self._pool.close()
        self._cleanup_worker_dir()

    def _cleanup_worker_dir(self) -> None:
        if self._owns_worker_dir and self._worker_dir is not None:
            shutil.rmtree(self._worker_dir, ignore_errors=True)
            self._owns_worker_dir = False

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

    def _routed(self, shard: int, endpoint: str, *args: Any) -> Any:
        """Answer one routed endpoint call on its owner shard.

        Dispatches in-process (thread executor) or as one RPC round-trip
        (process executor); the caller has already charged the shard's
        balance counter.
        """
        if self._pool is not None:
            return self._pool.call(shard, endpoint, *args)
        return getattr(self._services[shard], endpoint)(*args)

    def _scatter(self, call: Callable[[int, AliCoCoService], Any]) -> list:
        """Run ``call(shard, service)`` against every shard, in order."""
        self._count_calls(range(self.n_shards))
        if self._fanout is None:
            return [
                call(shard, service)
                for shard, service in enumerate(self._services)
            ]
        return list(
            self._fanout.map(call, range(self.n_shards), self._services)
        )

    def _arm_scatter(self, method: str, args: tuple) -> list:
        """Scatter one generation-pinned arm request to every worker.

        One pipelined round-trip per shard — every worker computes its
        arm concurrently (:meth:`ProcessShardPool.scatter`).  Returns
        the per-shard results in shard order.
        """
        self._count_calls(range(self.n_shards))
        results = self._pool.scatter(
            {shard: (method, args) for shard in range(self.n_shards)}
        )
        return [results[shard] for shard in range(self.n_shards)]

    def _shard_dense_states(self, shard: int, cgen: ClusterGeneration) -> dict:
        """One shard's dense index states, local or fetched over RPC."""
        if self._pool is None:
            return {
                name: dense_index.to_state()
                for name, dense_index in cgen.shards[shard].dense_indexes.items()
                if dense_index is not None
            }
        try:
            return self._pool.call(shard, "index_states")
        except ShardUnavailableError:
            return {}

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
        if self._pool is not None:
            arms = self._arm_scatter("search_arm", (cgen.generation_id, tokens, k))
        else:
            arms = self._scatter(
                lambda shard, service: service._search_uncached(
                    tokens, k, index=cgen.shard_search_indexes[shard]
                )
            )
        return merge_ranked(arms, cgen.concept_position, k)

    def _graph_arm(
        self, shard: int, concept_id: str, k: int, cgen: ClusterGeneration
    ) -> tuple:
        """The graph's association ranking, from the concept's owner
        shard: every item->concept edge lives there, in global insertion
        order, so the ranking is bit-identical."""
        if self._pool is not None:
            return self._pool.call(
                shard, "items_arm", cgen.generation_id, concept_id, k
            )
        return self._services[shard]._items_uncached(
            concept_id, k, store=cgen.shards[shard].store
        )

    def _dense_stage(
        self,
        cgen: ClusterGeneration,
        name: str,
        tokens: tuple[str, ...],
        k: int,
        query_state: Any,
    ) -> Callable[[], tuple] | None:
        """The dense arm of :func:`verify_pool` over every shard's index
        ``name``, merged, or ``None`` when no shard has one or the query
        no tokens.  The query vector is read from ``query_state`` once,
        parent-side, and the same vector goes to every shard."""
        present = (
            any(gen.dense_indexes.get(name) is not None for gen in cgen.shards)
            if cgen.shards
            else name in cgen.dense_presence
        )
        if not tokens or not present:
            return None
        positions = (
            cgen.concept_position if name == DENSE_CONCEPT_INDEX else cgen.item_position
        )

        def arm() -> tuple:
            vector = dense_query_vector(self._reranker, tokens, encoding=query_state)
            if self._pool is not None:
                arms = self._arm_scatter(
                    "dense_arm", (cgen.generation_id, name, vector, k)
                )
            else:
                arms = self._scatter(
                    lambda shard, service: service._dense_arm(
                        name, vector, k, indexes=cgen.shards[shard].dense_indexes
                    )
                )
            return merge_ranked(arms, positions, k)

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
        the ids it owns with their texts.  Under the process executor
        the whole request goes out as **one batched scatter**: a single
        round-trip per owner shard carries every candidate that shard
        owns, and the workers score their batches concurrently.
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
        if self._pool is not None:
            results = self._pool.scatter(
                {shard: ("pool_scores", args) for shard, args in calls.items()}
            )
        else:
            results = {
                shard: self._services[shard]._pool_scores(reranker, *args)
                for shard, args in calls.items()
            }
        scores = [0.0] * len(node_ids)
        for shard, shard_scores in results.items():
            for position, score in zip(groups[shard], shard_scores):
                scores[position] = score
        return scores
