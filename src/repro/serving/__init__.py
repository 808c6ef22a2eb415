"""Online serving of the net (Section 7's deployment, in miniature).

Construction (:mod:`repro.pipeline`) is offline; this package is the
online half: a read-only, cached, metered query service that warm-starts
from checksummed snapshots (format 2, :mod:`repro.kg.serialize`)
instead of rebuilding the net.  Given trained
models it also serves them: concept tagging (``tag``) and neural
re-ranking of graph/BM25 candidates (``items_for_concept_reranked``,
``search_reranked``), with model weights riding the same snapshot as a
model bundle.

Quickstart::

    from repro import build_alicoco, TINY
    from repro.serving import AliCoCoService

    service = AliCoCoService.from_build(build_alicoco(TINY))
    service.save_snapshot("net.snapshot")  # returns the bytes written
    # ... later, in the serving process (a damaged file raises DataError
    # before anything is built):
    service = AliCoCoService.from_snapshot("net.snapshot")
    service.search("gifts for mother")
    print(service.stats().format_table())
"""

from .admission import AdmissionController, AdmissionStats
from .cache import CacheCounters, LRUCache
from .cluster import (
    CLUSTER_META,
    COALESCED_ENDPOINTS,
    AliCoCoCluster,
    ClusterConfig,
    ClusterStats,
)
from .coalesce import Coalescer, CoalescerStats
from .models import (
    RERANKER_KIND,
    TAGGER_KIND,
    TagSpan,
    ensure_inference_mode,
    model_bundle_state,
    prepare_serving_module,
    rerank_pool,
    restore_serving_module,
)
from .procpool import (
    ProcessShardPool,
    ProcPoolStats,
    ShardWorkerSpec,
    WorkerStats,
)
from .rpc import ChannelStats, ShardChannel, decode_frame, encode_frame
from .service import (
    AliCoCoService,
    BatchResult,
    CONCEPT_INDEX,
    DENSE_CONCEPT_INDEX,
    DENSE_ITEM_INDEX,
    RERANKER_MODEL,
    TAGGER_MODEL,
    ServingGeneration,
    fit_concept_index,
    save_shard_snapshot,
    shard_service_from_snapshot,
    ServiceConfig,
)
from .shard import (
    PARTITIONED_LAYERS,
    REPLICATED_LAYERS,
    merge_ranked,
    owned_ids,
    project_bm25_index,
    shard_of,
    shard_sizes,
    split_concept_index,
    split_store,
)
from .stats import EndpointMetrics, EndpointStats, ServiceStats, endpoint_table

__all__ = [
    "AliCoCoCluster",
    "AliCoCoService",
    "AdmissionController",
    "AdmissionStats",
    "CLUSTER_META",
    "COALESCED_ENDPOINTS",
    "Coalescer",
    "CoalescerStats",
    "ClusterConfig",
    "ClusterStats",
    "ChannelStats",
    "PARTITIONED_LAYERS",
    "ProcPoolStats",
    "ProcessShardPool",
    "REPLICATED_LAYERS",
    "ShardChannel",
    "ShardWorkerSpec",
    "WorkerStats",
    "decode_frame",
    "encode_frame",
    "endpoint_table",
    "merge_ranked",
    "owned_ids",
    "project_bm25_index",
    "save_shard_snapshot",
    "shard_of",
    "shard_service_from_snapshot",
    "shard_sizes",
    "split_concept_index",
    "split_store",
    "BatchResult",
    "ServiceConfig",
    "CONCEPT_INDEX",
    "DENSE_CONCEPT_INDEX",
    "DENSE_ITEM_INDEX",
    "TAGGER_MODEL",
    "RERANKER_MODEL",
    "TAGGER_KIND",
    "RERANKER_KIND",
    "TagSpan",
    "ensure_inference_mode",
    "model_bundle_state",
    "prepare_serving_module",
    "rerank_pool",
    "restore_serving_module",
    "fit_concept_index",
    "CacheCounters",
    "LRUCache",
    "ServingGeneration",
    "EndpointMetrics",
    "EndpointStats",
    "ServiceStats",
]
