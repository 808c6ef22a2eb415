"""The traced run's wrappers, and the per-layer metrics read from its spans.

Every wrapper is installed from this file, around a public function or
method, under the name its caller looks up at call time: a module-level
function is patched in the module that calls it (``rerank_pool`` in
``repro.serving.service``, not in ``repro.serving.models``), a method on
its class.  :func:`installed` restores every original on exit, so answers
and code paths outside a traced run are untouched.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from functools import partial
from time import perf_counter
from typing import Any, Iterator

import repro.kg.serialize as serialize_module
import repro.serving.cluster as cluster_module
import repro.serving.procpool as procpool_module
import repro.serving.rpc as rpc_module
import repro.serving.service as service_module
from repro.kg.generations import GenerationalStore
from repro.matching.bm25 import BM25Index
from repro.retrieval import DENSE_BACKENDS
from repro.serving.admission import AdmissionController
from repro.serving.cache import LRUCache
from repro.serving.cluster import AliCoCoCluster
from repro.serving.coalesce import Coalescer
from repro.serving.procpool import ProcessShardPool
from repro.serving.service import AliCoCoService

from spans import Tracer, self_time_columns

#: The eight serving endpoints, in the service's handler order.
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

#: Root span names the workloads open: one read, one evolution cycle, one
#: freshness check, one set-up.
READ, CYCLE, FRESHNESS, SETUP = "request", "cycle", "freshness", "setup"

#: Evolution stages wrapped on a driver instance (see :func:`trace_driver`).
EVOLVE_STAGES = ("mine", "classify", "link", "match")

#: Build stages reported on their own; the other top-level stages are
#: summed into ``pipeline.build.rest_ms``.
BUILD_STAGES = {"item-layer": "item_layer_ms", "corpus": "corpus_ms"}
TOP_LEVEL_BUILD_STAGES = (
    "world",
    "corpus",
    "taxonomy",
    "primitive-layer",
    "concept-layer",
    "item-layer",
    "implicit-relations",
)

#: Per-layer metric names, in report order (BENCHMARK.json lists them).
LAYER_METRICS = {
    "serving.service.self_us": "us",
    "serving.service.publish_ms": "ms",
    "serving.cache.result_hit_share": "share",
    "serving.cache.doc_hit_share": "share",
    "serving.cache.self_us": "us",
    "matching.bm25.self_us": "us",
    "retrieval.dense.self_us": "us",
    "retrieval.dense.scan_fraction": "share",
    "retrieval.fusion.self_us": "us",
    "serving.models.rerank_self_us": "us",
    "serving.models.pool_size": "count",
    "serving.models.query_vector_self_us": "us",
    "serving.models.tag_self_us": "us",
    "serving.cluster.self_us": "us",
    "serving.cluster.shard_calls_per_request": "count",
    "serving.shard.merge_self_us": "us",
    "serving.coalesce.self_us": "us",
    "serving.coalesce.joined_share": "share",
    "serving.admission.wait_us": "us",
    "serving.admission.shed": "count",
    "serving.rpc.encode_us": "us",
    "serving.rpc.decode_us": "us",
    "serving.rpc.bytes_per_request": "bytes",
    "serving.procpool.transit_us": "us",
    "kg.generations.swap_ms": "ms",
    "kg.generations.compact_ms": "ms",
    "kg.generations.chain_length": "count",
    "pipeline.evolve.mine_ms": "ms",
    "pipeline.evolve.classify_ms": "ms",
    "pipeline.evolve.link_ms": "ms",
    "pipeline.evolve.match_ms": "ms",
    "kg.serialize.load_ms": "ms",
    "kg.serialize.save_ms": "ms",
    "pipeline.build.item_layer_ms": "ms",
    "pipeline.build.corpus_ms": "ms",
    "pipeline.build.rest_ms": "ms",
    "setup.train_ms": "ms",
    "loadgen.late_p50_us": "us",
    "loadgen.late_p99_us": "us",
    "trace.layer_sum_share": "share",
    "trace.overhead": "ratio",
}

#: Span name -> the ``*_us`` metric reporting its self time per read.
_SELF_PER_READ = {
    "serving.service": "serving.service.self_us",
    "serving.cache": "serving.cache.self_us",
    "matching.bm25": "matching.bm25.self_us",
    "retrieval.dense": "retrieval.dense.self_us",
    "retrieval.fusion": "retrieval.fusion.self_us",
    "serving.models.rerank": "serving.models.rerank_self_us",
    "serving.models.query_vector": "serving.models.query_vector_self_us",
    "serving.models.tag": "serving.models.tag_self_us",
    "serving.cluster": "serving.cluster.self_us",
    "serving.shard.merge": "serving.shard.merge_self_us",
    "serving.coalesce": "serving.coalesce.self_us",
    "serving.admission": "serving.admission.wait_us",
    "serving.rpc.encode": "serving.rpc.encode_us",
    "serving.rpc.decode": "serving.rpc.decode_us",
    "serving.procpool": "serving.procpool.transit_us",
}


class _TimedEntry:
    """A context manager whose ``__enter__`` (the slot wait) is a span."""

    def __init__(self, tracer: Tracer, manager: Any):
        self._tracer = tracer
        self._manager = manager

    def __enter__(self) -> Any:
        return self._tracer.call("serving.admission", self._manager.__enter__)

    def __exit__(self, *exc_info: Any) -> Any:
        return self._manager.__exit__(*exc_info)


def _patch_table(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """(owner, attribute, replacement) for every wrapped name."""
    table = []

    def wrap(owner: Any, attr: str, name: str) -> None:
        table.append((owner, attr, tracer.wrap(name, vars(owner)[attr])))

    for endpoint in ENDPOINTS:
        wrap(AliCoCoService, endpoint, "serving.service")
        wrap(AliCoCoCluster, endpoint, "serving.cluster")
    wrap(AliCoCoService, "publish", "serving.service.publish")
    wrap(LRUCache, "get", "serving.cache")
    wrap(LRUCache, "put", "serving.cache")
    wrap(BM25Index, "top_k", "matching.bm25")
    for module in (service_module, cluster_module):
        wrap(module, "rrf_fuse", "retrieval.fusion")
        wrap(module, "dense_query_vector", "serving.models.query_vector")
        wrap(module, "load_snapshot", "kg.serialize.load")
    wrap(serialize_module, "load_snapshot", "kg.serialize.load")
    wrap(service_module, "save_snapshot", "kg.serialize.save")
    wrap(service_module, "save_generations", "kg.serialize.save")
    wrap(service_module, "dense_doc_vector", "serving.models.doc_vector")
    wrap(service_module, "tag_spans", "serving.models.tag")
    wrap(cluster_module, "merge_ranked", "serving.shard.merge")
    wrap(ProcessShardPool, "call", "serving.procpool")
    wrap(ProcessShardPool, "scatter", "serving.procpool")

    rerank_pool = vars(service_module)["rerank_pool"]

    def traced_rerank_pool(*args: Any, **kwargs: Any) -> Any:
        tracer.add("pools")
        tracer.add("pool_docs", len(args[2]))
        return tracer.call("serving.models.rerank", rerank_pool, *args, **kwargs)

    table.append((service_module, "rerank_pool", traced_rerank_pool))

    for backend in set(DENSE_BACKENDS.values()):
        if "retrieve" not in vars(backend):
            continue
        retrieve = vars(backend)["retrieve"]

        def traced_retrieve(index: Any, *args: Any, _retrieve=retrieve, **kw: Any):
            scanned = index.stats().candidates_scored
            result = tracer.call("retrieval.dense", _retrieve, index, *args, **kw)
            stats = index.stats()
            tracer.add("dense_scanned", stats.candidates_scored - scanned)
            tracer.add("dense_size", stats.size)
            return result

        table.append((backend, "retrieve", traced_retrieve))

    submit = vars(Coalescer)["submit"]

    def traced_submit(coalescer: Coalescer, key: Any, compute: Any) -> Any:
        # The computation a flight runs is the cluster's own work: a
        # child span, so the coalescer's self time is its bookkeeping.
        compute = partial(tracer.call, "serving.cluster", compute)
        return tracer.call("serving.coalesce", submit, coalescer, key, compute)

    table.append((Coalescer, "submit", traced_submit))

    swap = vars(GenerationalStore)["swap"]

    def traced_swap(store: GenerationalStore) -> int:
        # A swap that leaves a longer chain than the store allows folds
        # it (auto-compaction) before returning: timed apart.
        base = store.base_generation
        start = perf_counter()
        result = tracer.call("kg.generations.swap", swap, store)
        kind = "compact" if store.base_generation != base else "swap"
        tracer.add(f"{kind}_seconds", perf_counter() - start)
        tracer.add(f"{kind}s")
        tracer.add("chain_length", len(store.published_segments))
        return result

    table.append((GenerationalStore, "swap", traced_swap))

    admit = vars(AdmissionController)["admit"]

    def traced_admit(controller: AdmissionController, *args: Any, **kw: Any):
        return _TimedEntry(tracer, admit(controller, *args, **kw))

    table.append((AdmissionController, "admit", traced_admit))

    for module in (rpc_module, procpool_module):
        encode, decode = vars(module)["encode_frame"], vars(module)["decode_frame"]

        def traced_encode(payload: Any, _encode=encode) -> bytes:
            frame = tracer.call("serving.rpc.encode", _encode, payload)
            tracer.add("rpc_bytes", len(frame))
            return frame

        def traced_decode(frame: bytes, _decode=decode) -> Any:
            tracer.add("rpc_bytes", len(frame))
            return tracer.call("serving.rpc.decode", _decode, frame)

        table.append((module, "encode_frame", traced_encode))
        table.append((module, "decode_frame", traced_decode))
    return table


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper for the ``with`` body; restore on exit."""
    table = _patch_table(tracer)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in table]
    try:
        for owner, attr, replacement in table:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def trace_driver(tracer: Tracer, driver: Any) -> None:
    """Wrap an evolution driver's stage callables, where ``run_cycle``
    looks them up (the instance attributes set at construction)."""
    for stage in EVOLVE_STAGES:
        attr = f"_{stage}"
        setattr(
            driver, attr, tracer.wrap(f"pipeline.evolve.{stage}", getattr(driver, attr))
        )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    counters: dict[str, float],
    build_stages: dict[str, float],
    train_seconds: float,
    lateness: dict[str, float],
    traced_qps: float,
    untraced_qps: float,
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value from one traced pass.

    Args:
        tracer: The traced pass's spans and counters.
        counters: Deltas the workload read from ``stats()`` over the
            traced reads (cache hits and lookups, shard calls,
            coalescer and admission counts).
        build_stages: The traced set-up's ``StageTimer`` stages.
        train_seconds: The traced set-up's model training time.
        lateness: The untraced open loop's generator lateness.
        traced_qps / untraced_qps: Closed-loop read rates of the two
            passes.
    """
    ids, parents, codes, starts, ends, requests = tracer.columns()
    names = tracer.names
    own = self_time_columns(ids, parents, starts, ends)
    durations = [end - start for start, end in zip(starts, ends)]
    roots: dict[str, set[int]] = defaultdict(set)
    for span_id, parent, code in zip(ids, parents, codes):
        if parent == 0:
            roots[names[code]].add(span_id)
    reads = roots[READ]
    n_reads = len(reads)
    self_by_name: dict[str, float] = defaultdict(float)
    total_by_name: dict[str, float] = defaultdict(float)
    read_time = 0.0
    swaps_by_parent: dict[int, float] = defaultdict(float)
    for index, code in enumerate(codes):
        name = names[code]
        total_by_name[name] += durations[index]
        if requests[index] in reads:
            if parents[index]:
                self_by_name[name] += own[index]
            else:
                read_time += durations[index]
        if name == "kg.generations.swap":
            swaps_by_parent[parents[index]] += durations[index]
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    for name, metric in _SELF_PER_READ.items():
        metrics[metric] = _ratio(self_by_name[name], n_reads) * 1e6
    metrics["trace.layer_sum_share"] = _ratio(sum(self_by_name.values()), read_time)

    publishes = [
        durations[index] - swaps_by_parent[ids[index]]
        for index, code in enumerate(codes)
        if names[code] == "serving.service.publish"
    ]
    metrics["serving.service.publish_ms"] = 1e3 * _mean(publishes)
    counts = tracer.counts
    metrics["kg.generations.swap_ms"] = 1e3 * _ratio(
        counts["swap_seconds"], counts["swaps"]
    )
    metrics["kg.generations.compact_ms"] = 1e3 * _ratio(
        counts["compact_seconds"], counts["compacts"]
    )
    metrics["kg.generations.chain_length"] = _ratio(
        counts["chain_length"], counts["swaps"] + counts["compacts"]
    )
    n_cycles = len(roots[CYCLE])
    for stage in EVOLVE_STAGES:
        metrics[f"pipeline.evolve.{stage}_ms"] = 1e3 * _ratio(
            total_by_name[f"pipeline.evolve.{stage}"], n_cycles
        )
    n_setups = len(roots[SETUP])
    metrics["kg.serialize.load_ms"] = 1e3 * _ratio(
        total_by_name["kg.serialize.load"], n_setups
    )
    metrics["kg.serialize.save_ms"] = 1e3 * _ratio(
        total_by_name["kg.serialize.save"], n_setups
    )
    metrics["serving.models.pool_size"] = _ratio(counts["pool_docs"], counts["pools"])
    metrics["retrieval.dense.scan_fraction"] = _ratio(
        counts["dense_scanned"], counts["dense_size"]
    )
    metrics["serving.rpc.bytes_per_request"] = _ratio(counts["rpc_bytes"], n_reads)

    metrics["serving.cache.result_hit_share"] = _ratio(
        counters.get("result_hits", 0), counters.get("result_lookups", 0)
    )
    metrics["serving.cache.doc_hit_share"] = _ratio(
        counters.get("doc_hits", 0), counters.get("doc_lookups", 0)
    )
    metrics["serving.cluster.shard_calls_per_request"] = _ratio(
        counters.get("shard_calls", 0), n_reads
    )
    metrics["serving.coalesce.joined_share"] = _ratio(
        counters.get("coalesce_joined", 0), counters.get("coalesce_requests", 0)
    )
    metrics["serving.admission.shed"] = counters.get("shed", 0)

    for stage, metric in BUILD_STAGES.items():
        metrics[f"pipeline.build.{metric}"] = 1e3 * build_stages.get(stage, 0.0)
    metrics["pipeline.build.rest_ms"] = 1e3 * sum(
        build_stages.get(stage, 0.0)
        for stage in TOP_LEVEL_BUILD_STAGES
        if stage not in BUILD_STAGES
    )
    metrics["setup.train_ms"] = 1e3 * train_seconds
    metrics["loadgen.late_p50_us"] = lateness.get("p50_us", 0.0)
    metrics["loadgen.late_p99_us"] = lateness.get("p99_us", 0.0)
    metrics["trace.overhead"] = _ratio(traced_qps, untraced_qps)
    return metrics
