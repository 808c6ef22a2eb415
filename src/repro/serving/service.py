"""The AliCoCo concept query service.

The paper deploys the net behind Alibaba search and recommendation
(Section 7): construction is offline, serving is online.  This module is
the online half for the reproduction — :class:`AliCoCoService` wraps a
frozen (read-only) :class:`~repro.kg.store.AliCoCoStore` and exposes the
production query surface:

- ``items_for_concept`` — the shopping list behind a concept card;
- ``concepts_for_item`` — the concepts an item participates in;
- ``interpretation`` — the primitive-concept senses of a concept;
- ``hypernyms`` — primitive-concept expansion (optionally transitive);
- ``search`` — text -> concept retrieval over a fitted
  :class:`~repro.matching.bm25.BM25Index`;
- ``batch`` — the multi-query entry point.

Model-backed endpoints join the surface when the service is given
trained models (Sections 5.3 and 6 deploy them online):

- ``tag`` — free text -> IOB concept mentions linked to the primitive
  layer, via a served :class:`~repro.concepts.tagging.ConceptTagger`;
- ``items_for_concept_reranked`` — the graph's item candidates rescored
  by a neural matcher (retrieval-then-verify);
- ``search_reranked`` — BM25 concept candidates rescored the same way.

Every endpoint — model-backed ones included — is LRU-cached and records
hit/miss latency percentiles and per-exception-type error counters
(:mod:`repro.serving.stats`), and is addressable through ``batch``.  A
service warm-starts from a checksummed snapshot
(:func:`repro.kg.serialize.load_snapshot`) in a fraction of a rebuild:
the store is bulk-built from the file's relation columns once every
digest checks out, the search index is rehydrated from
its serialised state instead of re-fitted, and trained model weights
restore from the snapshot's model bundle instead of re-training.

**Thread safety.**  A service instance may be shared freely across
threads.  The design splits state into two camps:

- *Frozen graph state* — the store, the fitted search index and the
  handler table are immutable after ``__init__`` (the store is
  explicitly frozen: any mutation raises
  :class:`~repro.errors.FrozenStoreError`).  Reads of immutable
  structures need no locks, so the hot query path over the graph is
  lock-free by construction.  This is the invariant that makes the rest
  cheap: if the store could change, every endpoint would need a reader
  lock *and* the cache could serve stale results.
- *Mutable bookkeeping* — the LRU result cache, the per-endpoint
  counters and the latency reservoirs each guard themselves with a
  single internal lock (:class:`~repro.serving.cache.LRUCache`,
  :class:`~repro.serving.stats.EndpointMetrics`,
  :class:`~repro.utils.timing.LatencyReservoir`).  Two threads missing
  the same key may both compute it, but the store is frozen so they
  compute the *same* value and the second ``put`` is a harmless
  refresh.
- *Served models* — prepared once at construction time
  (:func:`~repro.serving.models.prepare_serving_module`: fitted check +
  eval mode) and treated as frozen thereafter.  Inference is read-only
  over the weights and graph recording is context-local
  (:mod:`repro.ml.tensor`), so concurrent model queries need no locks;
  :func:`~repro.serving.models.ensure_inference_mode` turns the one
  forbidden mutation — training a live served module — into a loud
  :class:`~repro.errors.ConfigError` instead of silent nondeterminism.

**Inference fast path.**  The reranked endpoints score their candidate
pool through the batched :func:`~repro.serving.models.rerank_pool`
(query side encoded once, tape-free numpy kernels from
:mod:`repro.ml.inference`) instead of one ``score_text`` call per
candidate.  Doc-side encodings — the per-candidate tensors that depend
only on the candidate's own text — are additionally memoised in a
bounded thread-safe LRU keyed by (epoch, node id).  That cache is
**legal only because served nodes are immutable**: a node's text can
never change once it exists (generational stores only ever *add*
nodes, never mutate or re-use ids), so a cached encoding can never go
stale.  The result cache's no-invalidation property is narrower: it
holds only *within one generation* — a frozen service never leaves
generation 0, so its cache never invalidates at all, while a
generational service retires a whole generation's entries at ``swap()``
by keying them under the new generation id (see **Evolvable serving**
below).  The
served model is equally frozen (prepared once, never trained —
:func:`~repro.serving.models.ensure_inference_mode` enforces it), so
encodings outlive any individual query.  The cache warms lazily as pools
are scored; :meth:`AliCoCoService.warm_doc_cache` (or
``ServiceConfig(prewarm_doc_cache=True)``) pre-encodes the snapshot's
whole catalog up front.  The parity oracle is the same service over a
shallow copy of the matcher with ``fast_path = False``: its
``score_pool`` scores pair by pair and the service keeps no doc cache
for it; rankings are identical and scores within 1e-9 of the fast path
(empirically bit-identical).

**Configurable first stage.**  The reranked endpoints' candidate pools
come from a configurable retriever (``ServiceConfig(retriever=...)``):
``"bm25"`` keeps the historical cheap stage (lexical index for concepts,
graph association weights for items); ``"dense"`` swaps in an exact
dense index (:class:`~repro.retrieval.BruteForceDense`) over the served
matcher's own embeddings, built at construction time through the
doc-encoding cache; ``"hybrid"`` runs both arms and fuses their
*rankings* with Reciprocal Rank Fusion (:func:`~repro.retrieval.rrf_fuse`)
— lexical arms pin exact term matches, the dense arm bridges semantic
drift.  Dense indexes are
frozen with the store, persist inside snapshots
(:data:`DENSE_CONCEPT_INDEX` / :data:`DENSE_ITEM_INDEX`), and
warm-start bit-identically to a fresh fit.

**Evolvable serving.**  A service constructed over a
:class:`~repro.kg.generations.GenerationalStore` serves *generations*
instead of one forever-frozen net.  Every request pins the current
:class:`ServingGeneration` — one immutable bundle of (store view,
search index, dense indexes, primitive index) — at entry and reads only
from it, so no request ever observes a mixed generation.  Writers grow
the store through its ``create_*``/``add_*`` API (buffered in an open
delta, invisible to readers), and :meth:`AliCoCoService.publish` seals
and swaps: indexes extend incrementally (BM25 re-derives corpus
statistics exactly; the dense index appends rows), and one attribute
assignment installs the next generation.  Result-cache entries are
keyed by generation id, so a swap retires the old generation's entries
without ever calling a racy ``clear()`` — in-flight requests keep
hitting their pinned generation's keys, and the LRU evicts the retired
entries naturally.  Doc-side encodings survive swaps untouched (nodes
are immutable and ids are never reused);
:meth:`AliCoCoService.invalidate_doc_cache` bumps their epoch for the
deliberate cases (e.g. swapping the served reranker).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..concepts.tagging import ConceptTagger
from ..errors import ConfigError, DataError, RelationError, ReproError, error_by_name
from ..kg import query as kgq
from ..kg.generations import GenerationalStore, GenerationView
from ..kg.ids import ECOMMERCE_PREFIX, ITEM_PREFIX, PRIMITIVE_PREFIX, layer_of
from ..kg.relations import RelationKind
from ..kg.serialize import (
    generational_store_from_snapshot,
    load_snapshot,
    save_generations,
    save_snapshot,
)
from ..kg.store import AliCoCoStore
from ..matching.bm25 import BM25Index
from ..matching.retrieval import RETRIEVER_MODES, require_dense_capable
from ..ml.module import Module
from ..retrieval import (
    DEFAULT_RRF_K,
    BruteForceDense,
    dense_index_from_state,
    rrf_fuse,
)
from .cache import CacheCounters, LRUCache
from .models import (
    RERANKER_KIND,
    TAGGER_KIND,
    dense_doc_vector,
    dense_query_vector,
    model_bundle_state,
    prepare_serving_module,
    rerank_pool,
    restore_serving_module,
    tag_spans,
)
from .stats import EndpointMetrics, ServiceStats

#: Name under which the concept search index is stored in snapshots.
CONCEPT_INDEX = "bm25-concepts"

#: Snapshot index-state name of the dense concept index (search side).
DENSE_CONCEPT_INDEX = "dense-concepts"

#: Snapshot index-state name of the dense item index (matching side).
DENSE_ITEM_INDEX = "dense-items"

#: Every served index's population: the layer it covers and how a node
#: of that layer tokenises into a document.  Fitting and extending both
#: read documents through it, and no index holds an empty document.
_POPULATIONS: dict[str, tuple[str, Callable[[Any], list[str]]]] = {
    CONCEPT_INDEX: (ECOMMERCE_PREFIX, lambda node: list(node.tokens)),
    DENSE_CONCEPT_INDEX: (ECOMMERCE_PREFIX, lambda node: list(node.tokens)),
    DENSE_ITEM_INDEX: (ITEM_PREFIX, lambda node: node.title.split()),
}

#: The endpoints of a service and of a cluster, in handler-table order.
ENDPOINTS = (
    "items_for_concept",
    "concepts_for_item",
    "interpretation",
    "hypernyms",
    "search",
    "tag",
    "items_for_concept_reranked",
    "search_reranked",
)

#: Snapshot bundle name of the served concept tagger.
TAGGER_MODEL = "concept-tagger"

#: Snapshot bundle name of the served matching reranker.
RERANKER_MODEL = "reranker"

#: Each snapshot model bundle's kind.
_MODEL_KINDS = {TAGGER_MODEL: TAGGER_KIND, RERANKER_MODEL: RERANKER_KIND}

#: Sentinel for cache lookups (results may legitimately be falsy).
_MISS = object()

#: Accepted values for ``batch``'s failure policy.
_ON_ERROR_MODES = ("raise", "envelope")


@dataclass(frozen=True)
class BatchResult:
    """One enveloped sub-query outcome from :meth:`AliCoCoService.batch`.

    Envelope mode (``on_error="envelope"``) returns one of these per
    request, in request order, instead of aborting the whole batch on the
    first failure.  Exactly one of ``value`` / (``error_type``,
    ``error_message``) is populated, selected by ``ok``.

    Attributes:
        ok: Whether the sub-query succeeded.
        value: The endpoint's result when ``ok`` (``None`` otherwise).
        error_type: Exception class name when failed (``None`` otherwise).
        error_message: Stringified exception when failed.
    """

    ok: bool
    value: Any = None
    error_type: str | None = None
    error_message: str | None = None

    def unwrap(self) -> Any:
        """The result value, re-raising the recorded failure if any.

        Failures recorded as :class:`~repro.errors.ReproError` subclasses
        re-raise as their original type (via
        :func:`~repro.errors.error_by_name`); anything else re-raises as
        a plain :class:`~repro.errors.ReproError` carrying the recorded
        type name and message.
        """
        if self.ok:
            return self.value
        klass = error_by_name(self.error_type or "") or ReproError
        if klass is ReproError:
            raise ReproError(f"{self.error_type}: {self.error_message}")
        raise klass(self.error_message)


def run_batch(
    handlers: Mapping[str, Callable[..., Any]],
    requests: Iterable[Sequence],
    *,
    on_error: str,
    workers: int | None,
) -> list:
    """Dispatch ``(endpoint_name, *args)`` requests to ``handlers``.

    The one batch envelope behind :meth:`AliCoCoService.batch` and
    :meth:`~repro.serving.AliCoCoCluster.batch`: results in request
    order, ``"raise"`` propagating the earliest-submitted failure and
    ``"envelope"`` capturing each failure in a :class:`BatchResult`,
    optionally fanned out over a thread pool of ``workers``.

    Raises:
        ConfigError: On an unknown endpoint name (``"raise"`` mode),
            an unknown ``on_error`` policy, or a non-positive
            ``workers``.
    """
    if on_error not in _ON_ERROR_MODES:
        expected = ", ".join(repr(mode) for mode in _ON_ERROR_MODES)
        raise ConfigError(
            f"unknown on_error policy {on_error!r}; expected one of: {expected}"
        )
    if workers is not None and workers <= 0:
        raise ConfigError(f"batch workers must be positive, got {workers}")

    def run_one(request: Sequence) -> Any:
        endpoint, *args = request
        handler = handlers.get(endpoint)
        if handler is None:
            known = ", ".join(sorted(handlers))
            raise ConfigError(
                f"unknown endpoint {endpoint!r}; expected one of: {known}"
            )
        return handler(*args)

    def run_enveloped(request: Sequence) -> BatchResult:
        try:
            return BatchResult(ok=True, value=run_one(request))
        except Exception as error:
            return BatchResult(
                ok=False,
                error_type=type(error).__name__,
                error_message=str(error),
            )

    run = run_one if on_error == "raise" else run_enveloped
    requests = list(requests)
    if workers is None or workers == 1 or len(requests) <= 1:
        return [run(request) for request in requests]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # Futures are gathered in submission order, so results come back
        # in request order regardless of completion order; in "raise"
        # mode the earliest-submitted failure propagates.
        futures = [pool.submit(run, request) for request in requests]
        return [future.result() for future in futures]


@contextmanager
def metered_errors(
    metrics: Mapping[str, EndpointMetrics], endpoint: str
) -> Iterator[None]:
    """Count any failure against ``metrics[endpoint]``'s errors, re-raising."""
    try:
        yield
    except Exception as error:
        metrics[endpoint].record_error(type(error).__name__)
        raise


@dataclass(frozen=True)
class ServiceConfig:
    """Serving knobs.

    Attributes:
        cache_capacity: LRU result-cache entries; ``0`` disables caching.
        search_top_k: Default number of concepts returned by ``search``.
        rerank_pool_k: Candidates pulled from the cheap first stage (graph
            relations or BM25) before the neural reranker rescores them.
            Bounds model work per reranked query.
        reservoir_capacity: Latency samples retained per endpoint and
            cache outcome (see
            :class:`~repro.utils.timing.LatencyReservoir`).
        seed: Seed for the reservoirs' replacement RNG.
        doc_cache_capacity: Doc-side encoding cache entries (see the
            module docstring's fast-path section); ``0`` disables the
            cache (pools still batch, encodings are just not reused
            across queries).  A matcher with ``fast_path = False`` gets
            no cache: it has no doc-side encodings.
        prewarm_doc_cache: Encode the store's whole catalog into the doc
            cache at construction time instead of lazily on first use.
        retriever: First-stage strategy for the reranked endpoints.
            ``"bm25"`` (default) keeps the historical cheap stage — BM25
            concept candidates for ``search_reranked``, graph association
            ranking for ``items_for_concept_reranked``.  ``"dense"``
            replaces it with an exact dense index over the served
            matcher's embeddings; ``"hybrid"`` fuses both arms with
            Reciprocal Rank Fusion.  Dense and hybrid modes need a vector-capable
            reranker (``dense_vectors = True``, e.g. DSSM) — construction
            raises :class:`~repro.errors.ConfigError` otherwise.
        rrf_k: Reciprocal Rank Fusion constant (hybrid mode).
        hybrid_weights: (dense arm, lexical/graph arm) RRF multipliers.
    """

    cache_capacity: int = 4096
    search_top_k: int = 10
    rerank_pool_k: int = 50
    reservoir_capacity: int = 512
    seed: int = 0
    doc_cache_capacity: int = 8192
    prewarm_doc_cache: bool = False
    retriever: str = "bm25"
    rrf_k: int = DEFAULT_RRF_K
    hybrid_weights: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        if self.cache_capacity < 0:
            raise ConfigError(f"cache_capacity must be >= 0, got {self.cache_capacity}")
        if self.doc_cache_capacity < 0:
            raise ConfigError(
                f"doc_cache_capacity must be >= 0, got {self.doc_cache_capacity}"
            )
        if self.search_top_k <= 0:
            raise ConfigError(f"search_top_k must be positive, got {self.search_top_k}")
        if self.rerank_pool_k <= 0:
            raise ConfigError(
                f"rerank_pool_k must be positive, got {self.rerank_pool_k}"
            )
        if self.reservoir_capacity <= 0:
            raise ConfigError(
                f"reservoir_capacity must be positive, got {self.reservoir_capacity}"
            )
        if self.retriever not in RETRIEVER_MODES:
            expected = ", ".join(repr(mode) for mode in RETRIEVER_MODES)
            raise ConfigError(
                f"unknown retriever {self.retriever!r}; expected one of: {expected}"
            )
        if self.rrf_k <= 0:
            raise ConfigError(f"rrf_k must be positive, got {self.rrf_k}")
        if len(tuple(self.hybrid_weights)) != 2:
            raise ConfigError(
                "hybrid_weights must be (dense, lexical), got "
                f"{tuple(self.hybrid_weights)!r}"
            )


@dataclass(frozen=True)
class ServingGeneration:
    """One immutable serving state: a store view plus its derived indexes.

    Requests pin the service's current instance at entry and read only
    from it, so a concurrent :meth:`AliCoCoService.publish` can never
    show a request the new graph with the old indexes (or vice versa) —
    installing a generation is a single attribute assignment, atomic
    under the GIL.  A frozen (non-generational) service holds exactly
    one of these forever, at ``generation_id`` 0.

    Attributes:
        generation_id: The store generation these indexes were built
            over; 0 for a plain frozen store.
        store: The pinned read view (an
            :class:`~repro.kg.store.AliCoCoStore` or
            :class:`~repro.kg.generations.GenerationView`).
        search_index: The BM25 concept index over this view, or ``None``.
        dense_indexes: Dense first-stage indexes by snapshot name
            (empty under ``retriever="bm25"``).
        primitive_index: (surface, domain) -> primitive node id, for
            linking tagged mentions.
    """

    generation_id: int
    store: Any
    search_index: BM25Index | None
    dense_indexes: dict[str, BruteForceDense | None] = field(default_factory=dict)
    primitive_index: dict[tuple[str, str], str] = field(default_factory=dict)


def fit_concept_index(store: Any) -> BM25Index | None:
    """Fit the text -> concept BM25 index over a store's concept layer.

    Returns ``None`` when the store has no concept with text (a service
    over such a store simply answers every search with no results).
    """
    return fit_index(CONCEPT_INDEX, index_documents(CONCEPT_INDEX, store), None)


def require_model(module: Module | None, name: str, endpoint: str) -> Module:
    """The served module, or a :class:`~repro.errors.ConfigError` naming
    the endpoint that needs it — shared by the service, the cluster and
    the out-of-process shard workers (same message everywhere)."""
    if module is None:
        raise ConfigError(
            f"endpoint {endpoint!r} needs a served {name!r} model; "
            "construct the service with one (or restore it from a "
            "snapshot model bundle)"
        )
    return module


def request_query_state(reranker: Module, tokens: Sequence[str]) -> Any:
    """A reranked request's one query-side encoding.

    The service and the cluster encode each request's query here once
    and pass the state to the dense arm (which reads its vector from it)
    and to every pool the request scores, on every shard.  ``None`` —
    each consumer then encodes for itself — when the reranker has no
    fast path (``fast_path = False``, as the scalar oracle) or there are
    no tokens (the consumers then raise or answer empty exactly as they
    would without a shared state).
    """
    if not (tokens and getattr(reranker, "fast_path", False)):
        return None
    return reranker.encode_query(tokens)


def require_layer(store: Any, node_id: str, expected_layer: str) -> None:
    """Validate that ``node_id`` exists in ``store`` on the given layer.

    Raises:
        NodeNotFoundError: If the id is absent.
        RelationError: If the id lives on another layer.
    """
    store.get(node_id)  # NodeNotFoundError on absent ids
    if layer_of(node_id) != expected_layer:
        raise RelationError(
            f"node {node_id!r} is in layer {layer_of(node_id)!r}; "
            f"this endpoint serves layer {expected_layer!r}"
        )


# ----------------------------------------- shared by service and cluster
# The parts of a request that do not depend on where the shards run.
# The classes supply the rest: local indexes or scatter + merge_ranked
# for the first-stage arms, and local or owner-shard pool scoring.


def endpoint_handlers(
    owner: Any, reservoir_capacity: int, seed: int
) -> tuple[dict[str, Callable[..., Any]], dict[str, EndpointMetrics]]:
    """``owner``'s :data:`ENDPOINTS` as a :func:`run_batch` handler table,
    and one :class:`EndpointMetrics` each, seeded ``seed + position``."""
    handlers = {endpoint: getattr(owner, endpoint) for endpoint in ENDPOINTS}
    metrics = {
        endpoint: EndpointMetrics(reservoir_capacity, seed=seed + position)
        for position, endpoint in enumerate(ENDPOINTS)
    }
    return handlers, metrics


def serve_cached(
    owner: Any,
    endpoint: str,
    key: tuple,
    compute: Callable[[], Any],
    gen: Any,
    run: Callable[[str, tuple, Callable[[], Any]], Any] | None = None,
) -> Any:
    """Answer one request through ``owner``'s result cache, metered.

    ``owner`` (a service or a cluster) supplies ``_cache``, ``_metrics``
    and ``_generational``.  A generational owner prefixes keys with the
    pinned ``gen``'s id, so a swap retires the old generation's entries
    by making them unreachable instead of ``clear()``-ing under
    concurrent readers.  A miss runs ``compute()``, or ``run(endpoint,
    cache_key, compute)`` when given (the cluster's coalesce ->
    admission path).
    """
    metrics = owner._metrics[endpoint]
    start = perf_counter()
    if owner._generational:
        cache_key = ("gen", gen.generation_id, endpoint, *key)
    else:
        cache_key = (endpoint, *key)
    cache = owner._cache
    if cache is not None:
        cached = cache.get(cache_key, _MISS)
        if cached is not _MISS:
            metrics.record_hit(perf_counter() - start)
            return cached
    value = compute() if run is None else run(endpoint, cache_key, compute)
    if cache is not None:
        cache.put(cache_key, value)
    metrics.record_miss(perf_counter() - start)
    return value


def first_stage(
    config: ServiceConfig,
    k: int,
    cheap: Callable[[], Sequence[tuple[str, float]]],
    dense: Callable[[], Sequence[tuple[str, float]]] | None,
) -> Sequence[tuple[str, float]]:
    """A reranked request's candidate pool, per ``config.retriever``.

    ``cheap`` is the structural arm (BM25 concepts, or the graph's item
    ranking); ``dense`` the dense-index arm, ``None`` when no shard has
    an index or the query no tokens.  ``"bm25"`` (or no dense arm)
    answers with the cheap arm, ``"dense"`` with the dense arm, and
    ``"hybrid"`` with the top ``k`` of their Reciprocal Rank Fusion,
    dense arm first.  An arm the answer does not use is not run.
    """
    if dense is None or config.retriever == "bm25":
        return cheap()
    ranked = dense()
    if config.retriever == "dense":
        return ranked
    return rrf_fuse(
        [ranked, cheap()], k=config.rrf_k, weights=config.hybrid_weights
    )[:k]


def verify_pool(
    config: ServiceConfig,
    reranker: Module,
    tokens: tuple[str, ...],
    population: str,
    cheap: Callable[[int], Sequence[tuple[str, float]]],
    dense: Callable[[str, tuple[str, ...], int, Any], Callable[[], Sequence] | None],
    store: Any,
    score: Callable[..., Sequence[float]],
    k: int | None,
) -> tuple:
    """Retrieve, then verify: one reranked request's answer.

    Encodes the query once (:func:`request_query_state`) and draws up
    to ``config.rerank_pool_k`` candidates of ``population`` (a
    :data:`DENSE_CONCEPT_INDEX` or :data:`DENSE_ITEM_INDEX` layer)
    through :func:`first_stage`, from ``cheap(pool_k)`` and ``dense(
    population, tokens, pool_k, query_state)``.  Reads their texts from
    the pinned ``store``, rescores them with ``score(reranker, tokens,
    ids, texts, query_state)`` and returns the best ``k`` (all when
    ``None``) as ((node id, probability), ...), ties broken by id.
    """
    query_state = request_query_state(reranker, tokens)
    pool_k = config.rerank_pool_k
    pool = first_stage(
        config,
        pool_k,
        partial(cheap, pool_k),
        dense(population, tokens, pool_k, query_state),
    )
    node_ids = [node_id for node_id, _ in pool]
    _, tokens_of = _POPULATIONS[population]
    texts = [tokens_of(store.get(node_id)) for node_id in node_ids]
    scores = score(reranker, tokens, node_ids, texts, query_state)
    scored = sorted(zip(node_ids, scores), key=lambda pair: (-pair[1], pair[0]))
    return tuple(scored if k is None else scored[:k])


def prepare_models(
    config: ServiceConfig, tagger: ConceptTagger | None, reranker: Module | None
) -> tuple[ConceptTagger | None, Module | None]:
    """The given models, admitted by :func:`prepare_serving_module`.

    Raises:
        NotFittedError: If a model has not been trained.
        ConfigError: If ``config`` asks for a dense first stage without a
            vector-capable reranker.
    """
    if tagger is not None:
        tagger = prepare_serving_module(tagger, TAGGER_MODEL)
    if reranker is not None:
        reranker = prepare_serving_module(reranker, RERANKER_MODEL)
    if config.retriever != "bm25":
        require_dense_capable(reranker, f"retriever {config.retriever!r}")
    return tagger, reranker


def served_models(
    tagger: ConceptTagger | None, reranker: Module | None
) -> dict[str, Module]:
    """The given models by snapshot bundle name, absent ones left out."""
    models = {TAGGER_MODEL: tagger, RERANKER_MODEL: reranker}
    return {name: module for name, module in models.items() if module is not None}


def model_bundles(
    tagger: ConceptTagger | None, reranker: Module | None
) -> dict[str, Any]:
    """Snapshot model bundles of the given models, by bundle name."""
    return {
        name: model_bundle_state(module, _MODEL_KINDS[name])
        for name, module in served_models(tagger, reranker).items()
    }


def index_states_of(
    search_index: BM25Index | None, dense_indexes: Mapping[str, Any]
) -> dict[str, Any]:
    """The snapshot ``index_states`` of a concept index and dense indexes
    (absent ones are not written)."""
    states: dict[str, Any] = {}
    if search_index is not None:
        states[CONCEPT_INDEX] = search_index.to_state()
    for name, index in dense_indexes.items():
        if index is not None:
            states[name] = index.to_state()
    return states


def write_snapshot(
    path: str | Path,
    gen: Any,
    *,
    config_fingerprint: str,
    tagger: ConceptTagger | None,
    reranker: Module | None,
) -> int:
    """Write what is served: the view ``gen`` pinned — as its
    generations when it is a generation view — the indexes built over
    that view, and the model bundles.  ``gen`` is a
    :class:`ServingGeneration` or a cluster's bundle, so a saved file is
    consistent by construction, whatever the source store has published
    since.

    Returns:
        Number of bytes written.
    """
    generational = isinstance(gen.store, GenerationView)
    saver = save_generations if generational else save_snapshot
    return saver(
        gen.store,
        path,
        config_fingerprint=config_fingerprint,
        index_states=index_states_of(gen.search_index, gen.dense_indexes),
        model_states=model_bundles(tagger, reranker),
    )


def open_snapshot(
    snapshot: Any,
    expected_fingerprint: str | None,
    tagger: ConceptTagger | None,
    reranker: Module | None,
) -> AliCoCoStore | GenerationalStore:
    """The store a loaded snapshot serves; restores each given model's
    bundled weights into it.

    A generational snapshot (delta segments, or a folded generation in
    the header) replays into a generational store with its saved
    generation numbering, so generation-keyed caches stay coherent;
    others serve frozen.  The snapshot's index states are left to the
    constructor it is handed to (:func:`served_indexes`).

    Raises:
        DataError: If the snapshot's fingerprint is not
            ``expected_fingerprint`` (when given), or a requested model
            bundle is absent or fails kind/architecture validation.
    """
    header = snapshot.header
    if (
        expected_fingerprint is not None
        and header.config_fingerprint != expected_fingerprint
    ):
        raise DataError(
            f"snapshot fingerprint {header.config_fingerprint!r} does "
            f"not match expected {expected_fingerprint!r}"
        )
    for name, module in served_models(tagger, reranker).items():
        bundle = snapshot.model_states.get(name)
        if bundle is None:
            bundled = ", ".join(sorted(snapshot.model_states)) or "none"
            raise DataError(
                f"snapshot carries no {name!r} model bundle "
                f"(bundled models: {bundled})"
            )
        restore_serving_module(module, bundle, _MODEL_KINDS[name], name)
    if snapshot.deltas or header.base_generation > 0:
        return generational_store_from_snapshot(snapshot)
    return snapshot.store


def save_shard_snapshot(
    path: str | Path,
    shard_store: AliCoCoStore,
    *,
    search_index: BM25Index | None = None,
    dense_indexes: Mapping[str, BruteForceDense | None] | None = None,
    config_fingerprint: str = "",
) -> int:
    """Persist one shard's bootstrap state as an ordinary snapshot file.

    The process-backed cluster executor writes one of these per shard so
    each worker process can load *its shard only* from disk instead of
    receiving a pickled live store over the spawn boundary — bootstrap
    cost scales with the shard, not the net, and a crashed worker
    restarts from the same file.  ``search_index`` and ``dense_indexes``
    are the shard's *projections* of the cluster's global indexes: the
    rows of the documents it owns (:func:`repro.serving.shard.split_index`).

    Returns:
        Number of bytes written.
    """
    return save_snapshot(
        shard_store,
        path,
        config_fingerprint=config_fingerprint,
        index_states=index_states_of(search_index, dense_indexes or {}),
    )


def shard_service_from_snapshot(
    path: str | Path,
    *,
    config: ServiceConfig | None = None,
    tagger: ConceptTagger | None = None,
    reranker: Module | None = None,
    generational: bool = False,
) -> "AliCoCoService":
    """Rehydrate one shard service from a :func:`save_shard_snapshot` file.

    The worker-process counterpart of the cluster's in-process shard
    construction: the shard store replays from disk (insertion order
    preserved) and every index projection rehydrates from its serialised
    state.  The service fits nothing: it is given every population's
    projection, ``None`` for one the shard owns no document of — a
    shard must never fit its own index over ghost replicas and local
    statistics.  With ``generational=True`` the store is wrapped in a
    :class:`~repro.kg.generations.GenerationalStore` so cluster
    publishes can grow it behind its readers.

    Raises:
        DataError: If the snapshot is malformed.
    """
    snapshot = load_snapshot(path)
    store: AliCoCoStore | GenerationalStore = snapshot.store
    if generational:
        store = GenerationalStore(store)
    states = snapshot.index_states
    indexes = {
        name: index_from_state(name, states[name]) if name in states else None
        for name in _POPULATIONS
    }
    return AliCoCoService(
        store,
        config=config,
        search_index=indexes.pop(CONCEPT_INDEX),
        tagger=tagger,
        reranker=reranker,
        dense_indexes=indexes,
        config_fingerprint=snapshot.header.config_fingerprint,
    )


def _build_primitive_index(
    view: Any, old: ServingGeneration | None = None
) -> dict[tuple[str, str], str]:
    """(surface, domain) -> node id over a view's primitive layer.

    Derived from an immutable view, so the mapping is immutable too;
    setdefault keeps the first node in insertion order on the rare
    duplicate surface.  Given the previous generation, only the
    primitives beyond its view's are read: its map is returned as is
    when none were added, and extended in a copy otherwise (layers only
    grow, so the first-in-insertion-order rule still holds).
    """
    primitive_index: dict[tuple[str, str], str] = {}
    covered = 0
    if old is not None:
        covered = old.store.count_nodes(PRIMITIVE_PREFIX)
        if view.count_nodes(PRIMITIVE_PREFIX) == covered:
            return old.primitive_index
        primitive_index = dict(old.primitive_index)
    for node in view.nodes_since(covered, PRIMITIVE_PREFIX):
        primitive_index.setdefault((node.name, node.domain), node.id)
    return primitive_index


def index_documents(
    name: str, view: Any, start: int = 0
) -> list[tuple[str, list[str]]]:
    """(node id, tokens) of population ``name``'s nodes from position
    ``start`` of their layer on, in insertion order, skipping empty
    documents."""
    layer, tokens_of = _POPULATIONS[name]
    documents = []
    for node in view.nodes_since(start, layer):
        tokens = tokens_of(node)
        if tokens:
            documents.append((node.id, tokens))
    return documents


def fit_index(
    name: str,
    documents: list[tuple[str, list[str]]],
    vector_of: Callable[[str, Sequence[str]], Any] | None,
) -> BM25Index | BruteForceDense | None:
    """A fresh index of population ``name`` over ``(node id, tokens)``
    documents; ``None`` when there are none.  The concept index is BM25
    over the tokens; a dense index holds ``vector_of(node_id, tokens)``
    per document."""
    if not documents:
        return None
    if name == CONCEPT_INDEX:
        return BM25Index().fit(dict(documents))
    return BruteForceDense().fit(
        [node_id for node_id, _ in documents],
        [vector_of(node_id, tokens) for node_id, tokens in documents],
    )


def index_from_state(
    name: str, state: Mapping[str, Any]
) -> BM25Index | BruteForceDense:
    """Rehydrate a saved index of population ``name`` as it is."""
    if name == CONCEPT_INDEX:
        return BM25Index.from_state(state)
    return dense_index_from_state(state)


def _covers(name: str, state: Any, view: Any) -> bool:
    """Whether a saved state of population ``name`` covers ``view``: its
    ids — a BM25 state's ``doc_ids``, a brute-force state's ``ids`` —
    are the view's document ids, in order.  No state, or one another
    dense backend wrote, covers nothing."""
    if not isinstance(state, Mapping):
        return False
    if name == CONCEPT_INDEX:
        ids = state.get("doc_ids")
    elif state.get("backend") == BruteForceDense.backend:
        ids = state.get("ids")
    else:
        return False
    layer, tokens_of = _POPULATIONS[name]
    # The ids alone, not the documents: a token list kept per document
    # would set the collector off during a warm start.
    return ids == [node.id for node in view.nodes(layer) if tokens_of(node)]


def served_indexes(
    view: Any,
    config: ServiceConfig,
    states: Mapping[str, Any],
    vector_of: Callable[[str, Sequence[str]], Any],
    given: Mapping[str, Any],
) -> dict[str, Any]:
    """Every index a service or a cluster serves over ``view``, by
    population: the concept index, and the dense ones unless the config
    has no dense stage.

    A ``given`` index is served as it is (a cluster shard's projection,
    ``None`` included).  Otherwise one coverage rule holds for every
    kind: a saved state whose ids are the view's document ids, in order,
    is rehydrated, bit-identical to a fresh fit.  Any other state (over
    other documents, or from another dense backend) or none is refit
    over the view, not refused.
    """
    names = _POPULATIONS if config.retriever != "bm25" else (CONCEPT_INDEX,)
    indexes = {}
    for name in names:
        state = states.get(name)
        if name in given:
            indexes[name] = given[name]
        elif _covers(name, state, view):
            indexes[name] = index_from_state(name, state)
        else:
            indexes[name] = fit_index(name, index_documents(name, view), vector_of)
    return indexes


def fresh_doc_vector(reranker: Module | None) -> Callable[[str, Sequence[str]], Any]:
    """``vector_of`` for a dense index kept outside a service: each
    document embedded afresh, with no doc cache.  A service's cached
    encoding gives the same vector, so both build equal indexes."""
    return lambda _node_id, tokens: dense_doc_vector(reranker, tokens)


def extended_indexes(
    indexes: Mapping[str, Any],
    view: Any,
    old_view: Any,
    vector_of: Callable[[str, Sequence[str]], Any],
) -> dict[str, Any]:
    """The indexes of a newly published generation ``view``, by population.

    ``indexes`` cover ``old_view``.  Each grows by the documents its
    population's layer gained since into a new index — BM25 re-derives
    its corpus statistics exactly, a dense index appends rows, each new
    document embedded once by ``vector_of`` — so requests pinned to the
    old generation keep the old one.  A population with no index yet, or
    one whose index cannot grow, is fitted over the full view.
    """
    grown: dict[str, Any] = {}
    for name, index in indexes.items():
        layer = _POPULATIONS[name][0]
        fresh = index_documents(name, view, old_view.count_nodes(layer))
        if fresh:
            index = _extended(name, index, fresh, vector_of)
            if index is None:
                index = fit_index(name, index_documents(name, view), vector_of)
        grown[name] = index
    return grown


def _extended(
    name: str,
    index: BM25Index | BruteForceDense | None,
    fresh: list[tuple[str, list[str]]],
    vector_of: Callable[[str, Sequence[str]], Any],
) -> BM25Index | BruteForceDense | None:
    """``index`` grown by the ``fresh`` documents, or ``None`` when there
    is no index or it cannot grow (a BM25 state saved without raw
    lengths)."""
    if index is None:
        return None
    if name != CONCEPT_INDEX:
        return index.extended(
            [node_id for node_id, _ in fresh],
            [vector_of(node_id, tokens) for node_id, tokens in fresh],
        )
    try:
        return index.extended(dict(fresh))
    except DataError:
        return None


class AliCoCoService:
    """Concept query service over a frozen net — or an evolvable one.

    Given a plain :class:`~repro.kg.store.AliCoCoStore`, the store is
    frozen at construction time: cached results can never go stale
    because the graph underneath can never change, and the service stays
    at generation 0 forever.  Given a
    :class:`~repro.kg.generations.GenerationalStore`, the service serves
    its *published* view and advances to new generations through
    :meth:`publish` — requests pin one immutable
    :class:`ServingGeneration` at entry, so reads stay lock-free and
    internally consistent even while a publish is installing the next
    one (see the module docstring's **Evolvable serving** section).  One
    instance may be shared across threads either way — graph reads are
    lock-free over immutable state, and the cache/metrics guard
    themselves (see the module docstring for the full thread-safety
    contract).

    Args:
        store: The net to serve; frozen in place (a generational store
            stays growable through its own API — only its published
            views are immutable).
        config: Serving knobs (defaults are fine for tests/benchmarks).
        search_index: A concept index to serve as it is, ``None``
            included (a cluster passes each shard its projection of the
            global index, or ``None`` for a shard owning no concept, so
            no shard fits over its ghost replicas with shard-local corpus
            statistics; see :mod:`repro.serving.shard`).  When omitted,
            the index comes from ``dense_index_states`` or a fit, by the
            one rule of :func:`served_indexes`.
        tagger: A trained :class:`~repro.concepts.tagging.ConceptTagger`
            to serve behind ``tag``; the endpoint raises
            :class:`~repro.errors.ConfigError` when omitted.
        reranker: A trained matcher (anything with ``score_text``, e.g.
            :class:`~repro.matching.dssm.DSSM`) to serve behind the
            ``*_reranked`` endpoints; they raise
            :class:`~repro.errors.ConfigError` when omitted.
        dense_index_states: Serialised index states to warm-start from (a
            snapshot's ``index_states``, keyed :data:`CONCEPT_INDEX`,
            :data:`DENSE_CONCEPT_INDEX` and :data:`DENSE_ITEM_INDEX`).  A
            state whose ids are exactly the served view's documents is
            rehydrated — bit-identical to a fresh fit; any other state
            and absent ones are refit over the view
            (:func:`served_indexes`).  Dense states are ignored under
            ``retriever="bm25"``.
        dense_indexes: Dense indexes to serve as they are, keyed like
            ``dense_index_states`` (``None`` for an empty population).
            They take precedence over states; a cluster passes each
            shard its projections of the cluster's global indexes.
            Ignored under ``retriever="bm25"``.
        config_fingerprint: Digest of the build configuration, embedded in
            snapshots this service writes
            (:meth:`repro.config.RunScale.fingerprint`).

    Raises:
        NotFittedError: If a supplied model has not been trained.
        ConfigError: If the config asks for dense/hybrid retrieval
            without a vector-capable reranker.
    """

    def __init__(
        self,
        store: AliCoCoStore,
        *,
        config: ServiceConfig | None = None,
        search_index: Any = _MISS,
        tagger: ConceptTagger | None = None,
        reranker: Module | None = None,
        dense_index_states: Mapping[str, Any] | None = None,
        dense_indexes: dict[str, BruteForceDense | None] | None = None,
        config_fingerprint: str = "",
    ):
        self.config = config or ServiceConfig()
        self._generational = isinstance(store, GenerationalStore)
        self._store = store.freeze()  # a no-op self-return for generational stores
        self._fingerprint = config_fingerprint
        # The view every index below is built over.  For a generational
        # store this pins the *published* view — open/staged writes stay
        # invisible until publish() builds the next generation.
        view = store.current() if self._generational else self._store
        self._tagger, self._reranker = prepare_models(self.config, tagger, reranker)
        self._cache = (
            LRUCache(self.config.cache_capacity) if self.config.cache_capacity else None
        )
        # Doc-side encoding cache (see the module docstring): only worth
        # holding when a fast-path reranker is served — fallback matchers
        # have no doc-side encodings to reuse.  Keys carry an epoch so
        # deliberate invalidation (invalidate_doc_cache) never needs a
        # racy clear(); generation swaps leave the epoch alone because
        # nodes are immutable and ids are never reused.
        self._doc_cache = (
            LRUCache(self.config.doc_cache_capacity)
            if (
                self.config.doc_cache_capacity > 0
                and getattr(self._reranker, "fast_path", False)
            )
            else None
        )
        self._doc_epoch = 0
        # Every index over the pinned view (a None dense entry means
        # "population empty, fall back to the cheap stage").  Built after
        # the doc cache exists so a dense fit flows through it — every
        # title/concept encoded here is a future cache hit.
        given = dict(dense_indexes or {})
        if search_index is not _MISS:
            given[CONCEPT_INDEX] = search_index
        indexes = served_indexes(
            view, self.config, dense_index_states or {}, self._dense_vector, given
        )
        # All per-generation state rides one immutable bundle behind one
        # attribute; requests pin it at entry and publish() replaces it
        # atomically (the lock serializes publishers only — readers
        # never take it).
        self._publish_lock = threading.Lock()
        self._gen = ServingGeneration(
            generation_id=view.generation_id if self._generational else 0,
            store=view,
            search_index=indexes.pop(CONCEPT_INDEX),
            dense_indexes=indexes,
            primitive_index=_build_primitive_index(view),
        )
        if self._doc_cache is not None and self.config.prewarm_doc_cache:
            self.warm_doc_cache()
        self._handlers, self._metrics = endpoint_handlers(
            self, self.config.reservoir_capacity, self.config.seed
        )

    # ------------------------------------------------------------ warm start
    @classmethod
    def from_build(
        cls,
        result: Any,
        *,
        config: ServiceConfig | None = None,
        tagger: ConceptTagger | None = None,
        reranker: Module | None = None,
        config_fingerprint: str = "",
    ) -> "AliCoCoService":
        """Serve a freshly built net (cold start; fits the search index).

        Args:
            result: A :class:`~repro.pipeline.build.BuildResult` (anything
                with a ``.store`` attribute works).
            tagger / reranker: Trained models to serve (see ``__init__``).
        """
        return cls(
            result.store,
            config=config,
            tagger=tagger,
            reranker=reranker,
            config_fingerprint=config_fingerprint,
        )

    @classmethod
    def from_snapshot(
        cls,
        path: str | Path,
        *,
        config: ServiceConfig | None = None,
        tagger: ConceptTagger | None = None,
        reranker: Module | None = None,
        expected_fingerprint: str | None = None,
    ) -> "AliCoCoService":
        """Warm-start a service from a versioned snapshot.

        The store replays from disk, each index whose saved state covers
        the loaded view rehydrates from it (any other is refit:
        :func:`served_indexes`), and trained weights load from the
        snapshot's model bundle — no net rebuild, no re-training.

        Weights cannot conjure a model architecture out of thin air, so
        warm-starting a model works like ``torch`` state dicts: pass a
        freshly constructed (untrained) ``tagger`` / ``reranker`` built
        with the same hyperparameters, and the snapshot's exact float64
        weights are loaded into it after the bundle's architecture
        fingerprint and model kind are validated.  A snapshot may carry
        bundles the caller does not ask to restore (no module passed);
        those are ignored.

        Args:
            tagger / reranker: Untrained architecture instances to
                restore bundled weights into; served once restored.
            expected_fingerprint: When given, refuse to serve a snapshot
                built under a different configuration.

        Raises:
            DataError: If the snapshot is malformed, from another format
                version, fingerprint-mismatched, a requested model bundle
                is absent, or a bundle fails kind/architecture validation.
        """
        snapshot = load_snapshot(path)
        return cls(
            open_snapshot(snapshot, expected_fingerprint, tagger, reranker),
            config=config,
            tagger=tagger,
            reranker=reranker,
            dense_index_states=snapshot.index_states,
            config_fingerprint=snapshot.header.config_fingerprint,
        )

    def save_snapshot(self, path: str | Path) -> int:
        """Persist what is served — the current generation's view, its
        indexes and the models — as one snapshot (:func:`write_snapshot`).

        A generational service writes the generation it serves, not the
        store's newest: writes published on the store directly, without
        :meth:`publish`, are not in the file, so the saved indexes always
        cover the saved net.  Served models are embedded as model-bundle
        sections (exact float64 weights plus an architecture
        fingerprint); a model-less service writes a model-less snapshot.
        A dense-retrieval service additionally embeds its dense index
        states, so a warm start retrieves bit-identically without a fit.

        Returns:
            Number of bytes written.
        """
        return write_snapshot(
            path,
            self._gen,
            config_fingerprint=self._fingerprint,
            tagger=self._tagger,
            reranker=self._reranker,
        )

    # ----------------------------------------------------------- generations
    def publish(
        self, *, search_index: Any = _MISS, dense_indexes: Any = _MISS
    ) -> int:
        """Seal pending writes and atomically serve the next generation.

        Seals the store's open delta, swaps the published view, extends
        the derived indexes to cover the new nodes — exactly and
        incrementally (BM25 re-derives its corpus statistics over the
        grown collection; the dense index appends rows) into a new index
        so no live index is ever mutated — and installs the whole bundle
        as one :class:`ServingGeneration` in a single atomic assignment.
        In-flight requests finish against the generation they pinned at
        entry; new requests see the new one.  Result-cache entries carry
        the generation id in their key, so the old generation's entries
        are simply never looked up again and age out of the LRU — no
        ``clear()``, no stale hits, no lost concurrent lookups.

        A publish with nothing staged and nothing open is a no-op that
        returns the current generation id.

        Args:
            search_index / dense_indexes: When given, serve these indexes
                for the new generation instead of extending the old ones:
                a cluster shard never grows an index itself, so the
                cluster passes its projections of the advanced global
                indexes (:meth:`repro.serving.cluster.AliCoCoCluster.publish`).

        Returns:
            The generation id now being served.

        Raises:
            ConfigError: If the service serves a plain frozen store
                (build it over a
                :class:`~repro.kg.generations.GenerationalStore` to
                evolve it).
        """
        if not self._generational:
            raise ConfigError(
                "publish() needs a service over a GenerationalStore; this "
                "service serves a frozen store (generation 0 forever)"
            )
        with self._publish_lock:
            old = self._gen
            generation_id = self._store.publish()
            if generation_id == old.generation_id:
                return generation_id
            view = self._store.current()
            # The indexes not given grow by the new documents, each dense
            # one encoded through the doc cache, so the work is shared
            # with future pool scoring.
            stale = {CONCEPT_INDEX: old.search_index} if search_index is _MISS else {}
            if dense_indexes is _MISS:
                stale.update(old.dense_indexes)
            grown = extended_indexes(stale, view, old.store, self._dense_vector)
            self._gen = ServingGeneration(
                generation_id=generation_id,
                store=view,
                search_index=grown.pop(CONCEPT_INDEX, search_index),
                dense_indexes=grown if dense_indexes is _MISS else dense_indexes,
                primitive_index=_build_primitive_index(view, old),
            )
            # Roll the result cache's stats window so per-generation hit
            # rates are observable; entries are left in place — retired
            # keys are unreachable, which is the whole invalidation story.
            if self._cache is not None:
                self._cache.begin_generation(f"gen-{generation_id}")
            return generation_id

    # ------------------------------------------------------------- endpoints
    def items_for_concept(self, concept_id: str, top_k: int | None = None) -> tuple:
        """Best items for an e-commerce concept: ((item id, weight), ...).

        Results are ordered by descending association weight (simulated
        click-through), ties broken by insertion order.

        Raises:
            ConfigError: If ``top_k`` is given but not positive.
        """
        with metered_errors(self._metrics, "items_for_concept"):
            if top_k is not None and top_k <= 0:
                raise ConfigError(
                    f"items_for_concept top_k must be positive, got {top_k}"
                )
            gen = self._gen
            require_layer(gen.store, concept_id, ECOMMERCE_PREFIX)
            return serve_cached(
                self,
                "items_for_concept",
                (concept_id, top_k),
                lambda: self._items_uncached(concept_id, top_k, store=gen.store),
                gen,
            )

    def concepts_for_item(self, item_id: str) -> tuple:
        """E-commerce concept ids an item participates in."""
        with metered_errors(self._metrics, "concepts_for_item"):
            gen = self._gen
            require_layer(gen.store, item_id, ITEM_PREFIX)
            return serve_cached(
                self,
                "concepts_for_item",
                (item_id,),
                lambda: self._targets_of(
                    item_id, RelationKind.ITEM_ECOMMERCE, store=gen.store
                ),
                gen,
            )

    def interpretation(self, concept_id: str) -> tuple:
        """Primitive-concept ids interpreting an e-commerce concept."""
        with metered_errors(self._metrics, "interpretation"):
            gen = self._gen
            require_layer(gen.store, concept_id, ECOMMERCE_PREFIX)
            return serve_cached(
                self,
                "interpretation",
                (concept_id,),
                lambda: self._targets_of(
                    concept_id, RelationKind.INTERPRETED_BY, store=gen.store
                ),
                gen,
            )

    def hypernyms(self, primitive_id: str, transitive: bool = False) -> tuple:
        """Hypernym primitive-concept ids (breadth-first when transitive)."""
        with metered_errors(self._metrics, "hypernyms"):
            gen = self._gen
            require_layer(gen.store, primitive_id, PRIMITIVE_PREFIX)
            return serve_cached(
                self,
                "hypernyms",
                (primitive_id, transitive),
                lambda: self._hypernyms_uncached(
                    primitive_id, transitive, store=gen.store
                ),
                gen,
            )

    def search(self, text: str, k: int | None = None) -> tuple:
        """Best concepts for a free-text query: ((concept id, score), ...).

        Tokenisation matches concept construction (whitespace split), so a
        concept's own text always retrieves it.  The result cache is keyed
        on the *token tuple*, so queries differing only in whitespace
        (``"a  b"`` vs ``"a b"``) share one cache entry.
        """
        with metered_errors(self._metrics, "search"):
            if k is not None and k <= 0:
                raise ConfigError(f"search k must be positive, got {k}")
            k = k if k is not None else self.config.search_top_k
            tokens = tuple(text.split())
            gen = self._gen
            return serve_cached(
                self,
                "search",
                (tokens, k),
                lambda: self._search_uncached(tokens, k, index=gen.search_index),
                gen,
            )

    def tag(self, text: str) -> tuple:
        """Tag free text with concept mentions linked to the primitive layer.

        Runs the served :class:`~repro.concepts.tagging.ConceptTagger`
        (IOB decode under ``no_grad``) and links each span to the
        primitive-concept node with the same (surface, domain), when one
        exists: (:class:`~repro.serving.models.TagSpan`, ...).

        Raises:
            ConfigError: If the service was built without a tagger.
            DataError: On empty text (the tagger cannot tag zero tokens).
        """
        with metered_errors(self._metrics, "tag"):
            tagger = require_model(self._tagger, TAGGER_MODEL, "tag")
            tokens = tuple(text.split())
            gen = self._gen
            return serve_cached(
                self,
                "tag",
                (tokens,),
                lambda: tag_spans(tagger, tokens, gen.primitive_index),
                gen,
            )

    def items_for_concept_reranked(
        self, concept_id: str, top_k: int | None = None
    ) -> tuple:
        """Best items for a concept, rescored by the served matcher.

        Retrieval-then-verify: the configured first stage
        (``config.retriever`` — graph association weights, the dense
        item index, or their RRF fusion) supplies up to
        ``config.rerank_pool_k`` candidate items, the neural matcher
        rescores each (concept text, item title) pair, and the pool is
        re-ordered by model probability:
        ((item id, probability), ...), ties broken by item id.  Dense
        and hybrid stages can surface catalog items the graph never
        linked to the concept.

        Raises:
            ConfigError: If the service was built without a reranker, or
                ``top_k`` is given but not positive.
        """
        with metered_errors(self._metrics, "items_for_concept_reranked"):
            reranker = require_model(
                self._reranker, RERANKER_MODEL, "items_for_concept_reranked"
            )
            if top_k is not None and top_k <= 0:
                raise ConfigError(
                    f"items_for_concept_reranked top_k must be positive, got {top_k}"
                )
            gen = self._gen
            require_layer(gen.store, concept_id, ECOMMERCE_PREFIX)
            return serve_cached(
                self,
                "items_for_concept_reranked",
                (concept_id, top_k),
                lambda: verify_pool(
                    self.config,
                    reranker,
                    tuple(gen.store.get(concept_id).tokens),
                    DENSE_ITEM_INDEX,
                    partial(self._items_uncached, concept_id, store=gen.store),
                    partial(self._dense_stage, gen),
                    gen.store,
                    self._pool_scores,
                    top_k,
                ),
                gen,
            )

    def search_reranked(self, text: str, k: int | None = None) -> tuple:
        """Best concepts for a query, rescored by the served matcher.

        The configured first stage (``config.retriever`` — BM25, the
        dense concept index, or their RRF fusion) supplies up to
        ``config.rerank_pool_k`` candidate concepts; the matcher rescores
        each (query, concept text) pair and the pool is re-ordered by
        model probability: ((concept id, probability), ...), ties broken
        by concept id.

        Raises:
            ConfigError: If the service was built without a reranker, or
                ``k`` is given but not positive.
        """
        with metered_errors(self._metrics, "search_reranked"):
            reranker = require_model(self._reranker, RERANKER_MODEL, "search_reranked")
            if k is not None and k <= 0:
                raise ConfigError(f"search_reranked k must be positive, got {k}")
            k = k if k is not None else self.config.search_top_k
            tokens = tuple(text.split())
            gen = self._gen
            return serve_cached(
                self,
                "search_reranked",
                (tokens, k),
                lambda: verify_pool(
                    self.config,
                    reranker,
                    tokens,
                    DENSE_CONCEPT_INDEX,
                    partial(self._search_uncached, tokens, index=gen.search_index),
                    partial(self._dense_stage, gen),
                    gen.store,
                    self._pool_scores,
                    k,
                ),
                gen,
            )

    def batch(
        self,
        requests: Iterable[Sequence],
        *,
        on_error: str = "raise",
        workers: int | None = None,
    ) -> list:
        """Answer many queries in one call: the multi-query entry point.

        Each request is ``(endpoint_name, *args)``, e.g.
        ``("search", "thanksgiving dinner")`` or
        ``("items_for_concept", "ec_3", 5)``.  Results come back in
        request order; each sub-query is cached and metered exactly as if
        called individually — serial or fanned out.

        Args:
            on_error: Failure policy.  ``"raise"`` (default) propagates
                the first failure, discarding the batch — the historical
                behaviour.  ``"envelope"`` never raises on a sub-query:
                it returns one :class:`BatchResult` per request, in
                request order, so one bad request cannot throw away its
                neighbours' completed work.
            workers: When given, fan sub-queries out over a thread pool
                of this size.  Result order is deterministic (always
                request order) and content is identical to serial
                execution — the store is frozen, so a query's answer does
                not depend on scheduling.

        Raises:
            ConfigError: On an unknown endpoint name (``"raise"`` mode),
                an unknown ``on_error`` policy, or a non-positive
                ``workers``.
        """
        return run_batch(self._handlers, requests, on_error=on_error, workers=workers)

    # --------------------------------------------------------- introspection
    @property
    def store(self) -> AliCoCoStore:
        """The net being served.

        For a frozen service this is the store itself; for a generational
        service it is the :class:`~repro.kg.generations.GenerationalStore`
        — grow it through its ``create_*`` API and :meth:`publish` the
        next generation.
        """
        return self._store

    @property
    def generation_id(self) -> int:
        """The generation currently being served (0 for frozen services)."""
        return self._gen.generation_id

    @property
    def _search_index(self) -> BM25Index | None:
        """The current generation's concept index (cluster compatibility)."""
        return self._gen.search_index

    @property
    def _dense_indexes(self) -> dict[str, BruteForceDense | None]:
        """The current generation's dense indexes (cluster compatibility)."""
        return self._gen.dense_indexes

    @property
    def endpoints(self) -> tuple[str, ...]:
        """Names accepted by :meth:`batch`."""
        return tuple(self._handlers)

    @property
    def models(self) -> tuple[str, ...]:
        """Bundle names of the models this service is serving."""
        return tuple(served_models(self._tagger, self._reranker))

    def stats(self) -> ServiceStats:
        """Current serving statistics (store size, cache, latencies).

        Cache counter triples come from one locked
        :meth:`~repro.serving.cache.LRUCache.counters` snapshot each —
        reading ``hits``/``misses``/``evictions`` as three separate
        attribute loads can interleave with a concurrent request and
        tear (hits from before it, misses from after), which is exactly
        how a monitoring pass ends up reporting ``hits + misses >
        lookups``.
        """
        gen = self._gen
        store_stats = gen.store.stats()
        endpoint_stats = tuple(
            metrics.snapshot(endpoint) for endpoint, metrics in self._metrics.items()
        )
        doc_cache = self._doc_cache
        cache_counters = self._cache.counters() if self._cache else CacheCounters()
        doc_counters = doc_cache.counters() if doc_cache else CacheCounters()
        windows = (
            tuple(
                (label, counters.hits, counters.misses, counters.evictions)
                for label, counters in self._cache.generation_counters()
            )
            if self._cache
            else ()
        )
        return ServiceStats(
            nodes=len(gen.store),
            relations=store_stats.relations_total,
            cache_entries=len(self._cache) if self._cache else 0,
            cache_capacity=self._cache.capacity if self._cache else 0,
            cache_evictions=cache_counters.evictions,
            endpoints=endpoint_stats,
            doc_cache_entries=len(doc_cache) if doc_cache else 0,
            doc_cache_capacity=doc_cache.capacity if doc_cache else 0,
            doc_cache_hits=doc_counters.hits,
            doc_cache_misses=doc_counters.misses,
            doc_cache_evictions=doc_counters.evictions,
            cache_hits=cache_counters.hits,
            cache_misses=cache_counters.misses,
            generation_id=gen.generation_id,
            cache_generations=windows,
        )

    # ------------------------------------------------------------- internals
    # The graph/index helpers take the request's pinned generation (or
    # its store/indexes) as a required argument: every caller pins one,
    # and a forgotten argument is a TypeError rather than a silent read
    # of whichever generation is current.
    def _items_uncached(
        self, concept_id: str, top_k: int | None, *, store: Any
    ) -> tuple:
        relations = store.in_relations(concept_id, RelationKind.ITEM_ECOMMERCE)
        relations.sort(key=lambda relation: -relation.weight)
        if top_k is not None:
            relations = relations[:top_k]
        return tuple((relation.source, relation.weight) for relation in relations)

    def _targets_of(self, node_id: str, kind: RelationKind, *, store: Any) -> tuple:
        relations = store.out_relations(node_id, kind)
        return tuple(relation.target for relation in relations)

    def _hypernyms_uncached(
        self, primitive_id: str, transitive: bool, *, store: Any
    ) -> tuple:
        nodes = kgq.hypernyms(store, primitive_id, transitive=transitive)
        return tuple(node.id for node in nodes)

    def _search_uncached(self, tokens: tuple[str, ...], k: int, *, index: Any) -> tuple:
        if not tokens or index is None:
            return ()
        return tuple(index.top_k(tokens, k=k))

    # ------------------------------------------------- dense first stage
    def _dense_vector(self, node_id: str, tokens: Sequence[str]) -> Any:
        """One document's retrieval embedding, via the doc-encoding cache."""
        encoding = None
        if self._doc_cache is not None:
            (encoding,) = self._doc_encodings(self._reranker, [node_id], [tokens])
        return dense_doc_vector(self._reranker, tokens, encoding=encoding)

    def _dense_arm(self, name: str, vector: Any, k: int, *, indexes: Any) -> tuple:
        """One dense first-stage ranking: ((node id, score), ...).

        The query-vector-in flavour of dense retrieval, split out so a
        cluster (:mod:`repro.serving.cluster`) can encode the query once
        and fan the same vector out to every shard's local index.  An
        absent index (e.g. a shard owning no documents of this
        population) answers with an empty arm.
        """
        index = indexes.get(name)
        if index is None:
            return ()
        return tuple(index.retrieve(vector, k))

    def _dense_stage(
        self,
        gen: ServingGeneration,
        name: str,
        tokens: tuple[str, ...],
        k: int,
        query_state: Any,
    ) -> Callable[[], tuple] | None:
        """The dense arm of :func:`verify_pool` over ``gen``'s index
        ``name``, or ``None`` when the population has no index or the
        query no tokens.  The arm reads its vector from the request's
        ``query_state`` (encoding the query itself only when that is
        ``None``)."""
        if not tokens or gen.dense_indexes.get(name) is None:
            return None
        return lambda: self._dense_arm(
            name,
            dense_query_vector(self._reranker, tokens, encoding=query_state),
            k,
            indexes=gen.dense_indexes,
        )

    def _pool_scores(
        self,
        reranker: Module,
        query_tokens: Sequence[str],
        node_ids: Sequence[str],
        doc_token_lists: Sequence[Sequence[str]],
        query_state: Any,
    ) -> list[float]:
        """Model probabilities for one query against a candidate pool.

        Batches through :func:`~repro.serving.models.rerank_pool` with
        the request's ``query_state``, feeding cached doc-side encodings
        (looked up under one cache lock) when the doc cache is enabled.
        A matcher with ``fast_path = False`` scores pair by pair inside
        ``score_pool``: the scalar oracle, whose scores the parity suite
        holds the fast path to.
        """
        if not doc_token_lists:
            return []
        encodings = None
        if self._doc_cache is not None:
            encodings = self._doc_encodings(reranker, node_ids, doc_token_lists)
        scores = rerank_pool(
            reranker,
            query_tokens,
            doc_token_lists,
            doc_encodings=encodings,
            query_state=query_state,
        )
        return [float(score) for score in scores]

    def _doc_encodings(
        self,
        reranker: Module,
        node_ids: Sequence[str],
        doc_token_lists: Sequence[Sequence[str]],
    ) -> list:
        """Candidates' doc-side encodings, through the epoch-keyed cache.

        One ``get_many`` looks the whole pool up; misses are encoded and
        put back one by one.  Node ids are globally unique across layers
        (``it_``/``ec_`` prefixes), so items and concepts share one cache
        without key collisions; keys carry the doc epoch so
        :meth:`invalidate_doc_cache` can retire every entry without a
        ``clear()``.  Two threads missing the same id both encode it —
        deterministically to the same value, nodes and weights being
        immutable — and the second ``put`` is a harmless refresh.
        """
        epoch = self._doc_epoch
        keys = [(epoch, node_id) for node_id in node_ids]
        encodings = self._doc_cache.get_many(keys, _MISS)
        for index, encoding in enumerate(encodings):
            if encoding is _MISS:
                encoding = reranker.encode_doc(doc_token_lists[index])
                self._doc_cache.put(keys[index], encoding)
                encodings[index] = encoding
        return encodings

    def invalidate_doc_cache(self) -> int:
        """Retire every cached doc encoding by bumping the key epoch.

        Old-epoch entries become unreachable and fall out of the LRU
        naturally — no ``clear()``, so a concurrent reader that already
        fetched an old-epoch encoding finishes its pool unharmed.  Never
        needed for generation swaps (nodes are immutable, ids are never
        reused); exists for the deliberate cases, e.g. hot-swapping the
        served reranker weights out-of-band.

        Returns:
            The new epoch (0 means the cache is disabled).
        """
        if self._doc_cache is None:
            return 0
        with self._publish_lock:
            self._doc_epoch += 1
            return self._doc_epoch

    def warm_doc_cache(self) -> int:
        """Pre-encode the served catalog into the doc-side encoding cache.

        Walks every item title and e-commerce concept text — the two
        document populations the reranked endpoints score — and encodes
        the ones not already cached, so the first queries after a warm
        start (or a generation publish) pay no encoding cost.  A no-op
        (returns 0) when the doc cache is disabled or no fast-path
        reranker is served.

        Returns:
            Number of nodes newly encoded.
        """
        if self._doc_cache is None:
            return 0
        reranker = self._reranker
        epoch = self._doc_epoch
        store = self._gen.store
        warmed = 0
        for name in (DENSE_ITEM_INDEX, DENSE_CONCEPT_INDEX):
            layer, tokens_of = _POPULATIONS[name]
            for node in store.nodes(layer):
                tokens = tokens_of(node)
                # ``in`` skips already-cached ids without counting a
                # lookup, keeping hit/miss stats meaningful for traffic.
                if not tokens or (epoch, node.id) in self._doc_cache:
                    continue
                self._doc_cache.put((epoch, node.id), reranker.encode_doc(tokens))
                warmed += 1
        return warmed
