"""Bench — cluster serving: scatter-gather, coalescing, load shedding.

The closed-loop gate for the sharded serving tier.  Three sections, each
with hard assertions (CI runs them under ``REPRO_BENCH_SMOKE=1`` in the
``load-smoke`` job):

- **scatter-gather parity**: a cluster at 1/2/4 shards must answer a
  mixed battery (point lookups, scattered search, reranked endpoints
  under the hybrid retriever) *bit-identically* to the single-store
  oracle, with routed traffic reasonably balanced across shards;
- **request coalescing**: 8 closed-loop clients hammering a handful of
  hot rerank queries must see coalesced throughput at least match the
  straight-through cluster (>= 2x in full mode) — duplicates share one
  computation instead of each paying full rerank cost;
- **load shedding**: past the admission limits the cluster must answer
  ``OverloadedError`` within the queue-wait bound — overload degrades
  into fast typed rejections, never unbounded queueing or a hang;
- **executor scaling**: with per-request rerank compute scaled up to
  dominate overheads (10x catalog, scalar scoring path), the process
  executor's throughput-vs-shard-count curve must bend upward — at full
  scale, >= 1.5x the thread executor at 4 shards and monotone in shard
  count.  The gate needs hardware that can actually run 4 workers at
  once: under smoke, or with fewer than 4 usable cores, the section
  reports shape only (a one-core box cannot bend any curve; parity is
  still asserted).

The three historical sections honour ``REPRO_CLUSTER_EXECUTOR``
(``thread`` default, ``process`` to drive every cluster through the
out-of-process shard workers) so CI exercises both executors against the
same gates.  The final test is a leaked-process tripwire: after every
section, no worker child may still be alive.

Per-shard balance and a coalescing-window sweep are reported (not
gated).
"""

import copy
import multiprocessing
import os
import threading
import time
from dataclasses import replace

import pytest

from repro.errors import OverloadedError
from repro.kg.relations import RelationKind
from repro.matching import DSSMMatcher, train_matcher
from repro.matching.base import matching_vocab
from repro.matching.dataset import pair_from_texts
from repro.pipeline.build import build_alicoco
from repro.serving import (
    AliCoCoCluster,
    AliCoCoService,
    ClusterConfig,
    ServiceConfig,
)

from conftest import BENCH_SCALE, SMOKE

#: Which shard executor the parity/coalescing/overload sections drive.
_EXECUTOR = os.environ.get("REPRO_CLUSTER_EXECUTOR", "thread")

#: Full mode grows the synthetic catalog 10x (through the RunScale knob
#: below) so scattered rerank compute dominates per-request overhead —
#: the regime where shard parallelism is measurable at all.
_CATALOG_GROWTH = 1 if SMOKE else 10
_N_ITEMS = 160 if SMOKE else 480 * _CATALOG_GROWTH
_N_CONCEPTS = 40 if SMOKE else 220
_SHARD_COUNTS = (1, 2, 4)
_RERANKED_QUERIES = 6 if SMOKE else 12

#: Closed-loop coalescing A/B: clients cycling a small hot set.
_CLIENTS = 8
_HOT_QUERIES = 4
_COALESCE_PASSES = 4 if SMOKE else 10
#: Smoke guards against regression only (constant factors dominate at toy
#: sizes); the full run must show real sharing at 8 concurrent clients.
_MIN_COALESCE_SPEEDUP = 1.0 if SMOKE else 2.0
_WINDOW_SWEEP_MS = (0.0, 2.0)

#: Executor scaling: a closed loop of scalar-path rerank queries (the
#: per-candidate scoring loop is pure GIL-bound Python — the workload
#: the process executor exists for).
_SCALING_QUERIES = 4 if SMOKE else 10
_SCALING_PASSES = 1 if SMOKE else 3
_SCALING_POOL_K = 32 if SMOKE else 200
#: Full-scale gate: process >= this x thread throughput at 4 shards.
_SCALING_MIN_SPEEDUP = 1.5
#: Full-scale monotonicity: each step up in shard count may lose at most
#: this fraction to noise while the curve must still trend upward.
_SCALING_MONOTONE_TOLERANCE = 0.9
#: Cores this process may actually schedule on.  Four workers cannot
#: outrun one interpreter on a one-core box, so the speedup/monotone
#: gates only arm at full scale with >= 4 usable cores (parity asserts
#: unconditionally).
_USABLE_CORES = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else (os.cpu_count() or 1)
)
_SCALING_GATED = not SMOKE and _USABLE_CORES >= 4

#: Overload section: one execution slot, one queue slot, short deadline.
_OVERLOAD_THREADS = 8
_OVERLOAD_PASSES = 2 if SMOKE else 3
_QUEUE_WAIT_MS = 150.0
#: A shed request must return within the queue-wait bound; the grace term
#: absorbs scheduler jitter on loaded CI runners.
_SHED_BOUND_SECONDS = _QUEUE_WAIT_MS / 1e3 + 0.35


@pytest.fixture(scope="module")
def built():
    scale = replace(BENCH_SCALE, n_items=_N_ITEMS)
    return build_alicoco(scale, n_concepts=_N_CONCEPTS)


@pytest.fixture(scope="module")
def reranker(built):
    """A small trained DSSM over graph-labelled (concept, title) pairs."""
    pairs = []
    for spec in built.concepts[:10]:
        concept_id = built.concept_ids[spec.text]
        linked = {
            relation.source
            for relation in built.store.in_relations(
                concept_id, RelationKind.ITEM_ECOMMERCE
            )
        }
        for index in range(8):
            item_id = built.item_ids[index]
            title_tokens = built.store.get(item_id).title.split()
            pairs.append(
                pair_from_texts(
                    spec.tokens, title_tokens, label=int(item_id in linked)
                )
            )
    model = DSSMMatcher(matching_vocab(pairs), dim=8, hidden=8, seed=1)
    train_matcher(model, pairs, epochs=2, lr=0.05, seed=0)
    return model


def _linked_concepts(built, count):
    """Concept specs with item pools — empty pools measure nothing."""
    return [
        spec
        for spec in built.concepts
        if built.store.in_relations(
            built.concept_ids[spec.text], RelationKind.ITEM_ECOMMERCE
        )
    ][:count]


def _battery(built):
    """A mixed battery: every endpoint, routed and scattered."""
    requests = []
    for spec in built.concepts:
        concept_id = built.concept_ids[spec.text]
        requests.append(("search", spec.text))
        requests.append(("items_for_concept", concept_id, 10))
        requests.append(("interpretation", concept_id))
    for index in range(0, _N_ITEMS, 7):
        requests.append(("concepts_for_item", built.item_ids[index]))
    for primitive_id in list(built.primitive_ids.values())[::9]:
        requests.append(("hypernyms", primitive_id, True))
    for spec in _linked_concepts(built, _RERANKED_QUERIES):
        concept_id = built.concept_ids[spec.text]
        requests.append(("items_for_concept_reranked", concept_id, 5))
        requests.append(("search_reranked", spec.text, 5))
    return requests


def test_cluster_scatter_gather(built, reranker, report):
    """1/2/4-shard clusters answer bit-identically to the single store."""
    service_config = ServiceConfig(retriever="hybrid")
    oracle = AliCoCoService(
        built.store, config=service_config, reranker=reranker
    )
    requests = _battery(built)
    expected = oracle.batch(requests)

    lines = [
        f"Cluster scatter-gather at {_N_ITEMS} items / {_N_CONCEPTS} "
        f"concepts ({BENCH_SCALE.name}); {len(requests)} mixed requests, "
        f"retriever=hybrid",
        f"  {'shards':>6} {'batch':>10} {'q/s':>8} {'imbalance':>10} "
        f"shard calls",
    ]
    for n_shards in _SHARD_COUNTS:
        cluster = AliCoCoCluster(
            built.store,
            config=ClusterConfig(n_shards=n_shards, executor=_EXECUTOR),
            service_config=service_config,
            reranker=reranker,
        )
        start = time.perf_counter()
        answers = cluster.batch(requests)
        batch_seconds = time.perf_counter() - start
        assert answers == expected, (
            f"scatter-gather at {n_shards} shards diverged from the "
            f"single-store oracle"
        )
        stats = cluster.stats()
        # Scatter fan-out plus hash routing must keep shards busy evenly:
        # no shard may see more than 3x the mean call count.
        assert stats.imbalance <= 3.0, (
            f"shard imbalance {stats.imbalance:.2f} at {n_shards} shards"
        )
        qps = len(requests) / max(batch_seconds, 1e-9)
        lines.append(
            f"  {n_shards:>6} {batch_seconds * 1e3:>8.1f}ms {qps:>8,.0f} "
            f"{stats.imbalance:>9.2f}x {list(stats.shard_calls)}"
        )
        cluster.close()
    lines.append(
        f"  parity: all {len(requests)} answers bit-identical to the "
        f"oracle at every shard count (incl. reranked hybrid retrieval)"
    )
    report("\n".join(lines))


class _StraightThrough:
    """Coalescing disabled: every request computes independently."""

    def submit(self, key, compute):
        return compute()


def _coalescing_cluster(built, reranker, window_ms, coalesce=True):
    """A cluster with result caches off so every request pays rerank cost."""
    cluster = AliCoCoCluster(
        built.store,
        config=ClusterConfig(
            n_shards=2,
            executor=_EXECUTOR,
            cache_capacity=0,
            coalesce_window_ms=window_ms,
            max_inflight=_CLIENTS,
            max_queue_depth=4 * _CLIENTS,
            max_queue_wait_ms=30_000.0,
        ),
        service_config=ServiceConfig(cache_capacity=0),
        reranker=reranker,
    )
    if not coalesce:
        cluster._coalescer = _StraightThrough()
    return cluster


def _hot_requests(built):
    """A small hot set: the coalescing win case is concurrent duplicates."""
    specs = _linked_concepts(built, _HOT_QUERIES)
    requests = []
    for index, spec in enumerate(specs):
        if index % 2 == 0:
            requests.append(("search_reranked", spec.text, 5))
        else:
            concept_id = built.concept_ids[spec.text]
            requests.append(("items_for_concept_reranked", concept_id, 5))
    return requests


def _closed_loop(cluster, requests, expected):
    """Hammer the cluster with _CLIENTS closed-loop threads; return q/s."""
    errors: list = []
    barrier = threading.Barrier(_CLIENTS)

    def client():
        try:
            barrier.wait()
            for _ in range(_COALESCE_PASSES):
                for request, answer in zip(requests, expected):
                    endpoint, *arguments = request
                    assert getattr(cluster, endpoint)(*arguments) == answer
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=client) for _ in range(_CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start
    assert errors == []
    total = _CLIENTS * _COALESCE_PASSES * len(requests)
    return total / max(seconds, 1e-9)


def test_cluster_coalescing(built, reranker, report):
    """Coalesced rerank throughput >= straight-through at 8 clients."""
    requests = _hot_requests(built)
    oracle = AliCoCoService(
        built.store, config=ServiceConfig(cache_capacity=0), reranker=reranker
    )
    expected = [
        getattr(oracle, endpoint)(*arguments)
        for endpoint, *arguments in requests
    ]

    # Best of two runs per variant damps scheduler noise on CI runners.
    coalesced_qps = uncoalesced_qps = 0.0
    coalesced_stats = None
    for _ in range(2):
        with _coalescing_cluster(built, reranker, 0.0, coalesce=False) as off:
            uncoalesced_qps = max(
                uncoalesced_qps, _closed_loop(off, requests, expected)
            )
        with _coalescing_cluster(built, reranker, 0.0) as on:
            coalesced_qps = max(
                coalesced_qps, _closed_loop(on, requests, expected)
            )
            coalesced_stats = on.stats()

    # The coalescer ledger must balance, and with 8 clients cycling
    # _HOT_QUERIES hot keys duplicates must actually have shared flights.
    ledger = coalesced_stats.coalescer
    assert ledger.requests == ledger.flights + ledger.joined
    assert ledger.requests == _CLIENTS * _COALESCE_PASSES * len(requests)
    assert ledger.joined > 0
    assert coalesced_stats.admission.shed == ()

    speedup = coalesced_qps / max(uncoalesced_qps, 1e-9)
    assert speedup >= _MIN_COALESCE_SPEEDUP, (
        f"coalesced rerank throughput should be >={_MIN_COALESCE_SPEEDUP}x "
        f"the straight-through cluster at {_CLIENTS} clients, got "
        f"{speedup:.2f}x"
    )

    lines = [
        f"Request coalescing at {_N_ITEMS} items / {_N_CONCEPTS} concepts: "
        f"{_CLIENTS} closed-loop clients x {_COALESCE_PASSES} passes over "
        f"{len(requests)} hot rerank queries (result caches off)",
        f"  straight-through: {uncoalesced_qps:>8,.0f} q/s",
        f"  coalesced (w=0):  {coalesced_qps:>8,.0f} q/s -> {speedup:.1f}x",
        f"  flights {ledger.flights} / joined {ledger.joined} "
        f"(mean batch {ledger.mean_batch:.1f}, max {ledger.max_batch})",
        "",
        f"  window sweep ({'smoke' if SMOKE else 'full'} scale):",
        f"  {'window':>8} {'q/s':>8} {'flights':>8} {'joined':>8} "
        f"{'mean batch':>11} {'max':>4}",
    ]
    for window_ms in _WINDOW_SWEEP_MS:
        with _coalescing_cluster(built, reranker, window_ms) as swept:
            sweep_qps = _closed_loop(swept, requests, expected)
            sweep = swept.stats().coalescer
        lines.append(
            f"  {window_ms:>6.1f}ms {sweep_qps:>8,.0f} {sweep.flights:>8} "
            f"{sweep.joined:>8} {sweep.mean_batch:>11.1f} "
            f"{sweep.max_batch:>4}"
        )
    report("\n".join(lines))


def test_cluster_overload(built, reranker, report):
    """Past admission limits the cluster sheds fast — it never hangs."""
    cluster = AliCoCoCluster(
        built.store,
        config=ClusterConfig(
            n_shards=2,
            executor=_EXECUTOR,
            cache_capacity=0,
            max_inflight=1,
            max_queue_depth=1,
            max_queue_wait_ms=_QUEUE_WAIT_MS,
        ),
        service_config=ServiceConfig(cache_capacity=0),
        reranker=reranker,
    )
    # Distinct queries per request so coalescing cannot absorb the burst:
    # every submission needs its own admission slot.
    texts = [spec.text for spec in built.concepts]
    assert len(texts) >= _OVERLOAD_THREADS * _OVERLOAD_PASSES

    shed_durations: list = []
    ok_durations: list = []
    unexpected: list = []
    barrier = threading.Barrier(_OVERLOAD_THREADS)

    def client(offset):
        try:
            barrier.wait()
            for index in range(_OVERLOAD_PASSES):
                text = texts[offset * _OVERLOAD_PASSES + index]
                start = time.perf_counter()
                try:
                    answer = cluster.search_reranked(text, 5)
                    ok_durations.append(time.perf_counter() - start)
                    assert isinstance(answer, tuple)
                except OverloadedError as error:
                    shed_durations.append(time.perf_counter() - start)
                    assert error.reason in ("queue_full", "queue_timeout")
        except Exception as error:  # pragma: no cover - failure path
            unexpected.append(error)

    threads = [
        threading.Thread(target=client, args=(offset,))
        for offset in range(_OVERLOAD_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads), (
        "overloaded cluster hung a client thread"
    )
    # Overload may only surface as OverloadedError — nothing else leaks.
    assert unexpected == []
    assert shed_durations, "admission limits were never reached"

    stats = cluster.stats()
    admission = stats.admission
    total = _OVERLOAD_THREADS * _OVERLOAD_PASSES
    assert admission.admitted + admission.shed_total == total
    assert admission.shed_total == len(shed_durations)
    endpoint = stats.endpoint("search_reranked")
    assert ("OverloadedError", len(shed_durations)) in endpoint.errors

    # The queue-wait bound: a shed request is a *fast* rejection.
    slowest_shed = max(shed_durations)
    assert slowest_shed <= _SHED_BOUND_SECONDS, (
        f"shed request took {slowest_shed * 1e3:.0f}ms, bound is "
        f"{_SHED_BOUND_SECONDS * 1e3:.0f}ms"
    )
    assert admission.shed_wait_p99_ms <= _QUEUE_WAIT_MS + 100.0

    reasons = ", ".join(
        f"{reason}={count}" for reason, count in admission.shed
    ) or "none"
    lines = [
        f"Load shedding: {_OVERLOAD_THREADS} clients x {_OVERLOAD_PASSES} "
        f"distinct rerank queries against max_inflight=1 / queue_depth=1 / "
        f"wait={_QUEUE_WAIT_MS:.0f}ms",
        f"  admitted {admission.admitted} / shed {admission.shed_total} "
        f"({admission.shed_rate * 100:.0f}% shed: {reasons})",
        f"  slowest shed: {slowest_shed * 1e3:.1f}ms "
        f"(bound {_SHED_BOUND_SECONDS * 1e3:.0f}ms); "
        f"shed wait p99 {admission.shed_wait_p99_ms:.1f}ms",
        f"  queue wait p50/p95/p99: {admission.queue_wait_p50_ms:.1f} / "
        f"{admission.queue_wait_p95_ms:.1f} / "
        f"{admission.queue_wait_p99_ms:.1f} ms",
        f"  success p50: "
        f"{sorted(ok_durations)[len(ok_durations) // 2] * 1e3:.1f}ms "
        f"({len(ok_durations)} served)",
        "",
        stats.format_table("overloaded cluster stats"),
    ]
    cluster.close()
    report("\n".join(lines))


def _scaling_requests(built):
    """Rerank-heavy battery for the executor-scaling section."""
    requests = []
    for spec in _linked_concepts(built, _SCALING_QUERIES):
        concept_id = built.concept_ids[spec.text]
        requests.append(("search_reranked", spec.text, 5))
        requests.append(("items_for_concept_reranked", concept_id, 5))
    return requests


def test_cluster_executor_scaling(built, reranker, report):
    """Process workers bend the throughput-vs-shard-count curve upward.

    The thread executor scatters rerank arms across a fanout pool, but
    the scalar scoring loop holds the GIL, so adding shards adds no
    compute.  The process executor runs each arm in its own interpreter:
    at full scale on >= 4 usable cores its 4-shard throughput must be >=
    ``_SCALING_MIN_SPEEDUP``x the thread executor's, and its curve must
    be monotone in shard count.  Answers stay bit-identical throughout —
    speed never buys divergence.
    """
    service_config = ServiceConfig(
        retriever="hybrid",
        rerank_pool_k=_SCALING_POOL_K,
        doc_cache_capacity=0,
        cache_capacity=0,
    )
    # The scalar path: a copy of the matcher with its fast path off
    # scores each pool pair by pair.
    scalar_reranker = copy.copy(reranker)
    scalar_reranker.fast_path = False
    requests = _scaling_requests(built)
    oracle = AliCoCoService(
        built.store, config=service_config, reranker=scalar_reranker
    )
    expected = oracle.batch(requests)

    throughput: dict[tuple, float] = {}
    for executor in ("thread", "process"):
        for n_shards in _SHARD_COUNTS:
            cluster = AliCoCoCluster(
                built.store,
                config=ClusterConfig(
                    n_shards=n_shards,
                    executor=executor,
                    cache_capacity=0,
                    fanout_workers=n_shards,
                ),
                service_config=service_config,
                reranker=scalar_reranker,
            )
            try:
                assert cluster.batch(requests) == expected, (
                    f"{executor} executor at {n_shards} shards diverged "
                    f"from the single-store oracle"
                )
                best = 0.0
                for _ in range(_SCALING_PASSES):
                    start = time.perf_counter()
                    answers = cluster.batch(requests)
                    seconds = time.perf_counter() - start
                    assert answers == expected
                    best = max(best, len(requests) / max(seconds, 1e-9))
                throughput[(executor, n_shards)] = best
            finally:
                cluster.close()

    lines = [
        f"Executor scaling at {_N_ITEMS} items / {_N_CONCEPTS} concepts "
        f"({_CATALOG_GROWTH}x catalog, {BENCH_SCALE.name}): "
        f"{len(requests)} scalar-path rerank queries "
        f"(pool_k={_SCALING_POOL_K}), best of {_SCALING_PASSES}",
        f"  {'shards':>6} {'thread q/s':>11} {'process q/s':>12} "
        f"{'process/thread':>15}",
    ]
    for n_shards in _SHARD_COUNTS:
        thread_qps = throughput[("thread", n_shards)]
        process_qps = throughput[("process", n_shards)]
        lines.append(
            f"  {n_shards:>6} {thread_qps:>11,.1f} {process_qps:>12,.1f} "
            f"{process_qps / max(thread_qps, 1e-9):>14.2f}x"
        )
    gate = throughput[("process", 4)] / max(throughput[("thread", 4)], 1e-9)
    if not _SCALING_GATED:
        reason = (
            "smoke scale"
            if SMOKE
            else f"only {_USABLE_CORES} usable core(s)"
        )
        lines.append(
            f"  {reason}: shape report only (4-shard ratio "
            f"{gate:.2f}x; the >={_SCALING_MIN_SPEEDUP}x gate and the "
            f"monotone check run at full scale on >= 4 cores)"
        )
    else:
        assert gate >= _SCALING_MIN_SPEEDUP, (
            f"process executor at 4 shards is only {gate:.2f}x the "
            f"thread executor; the GIL escape should buy >= "
            f"{_SCALING_MIN_SPEEDUP}x"
        )
        for previous, current in zip(_SHARD_COUNTS, _SHARD_COUNTS[1:]):
            low = throughput[("process", previous)]
            high = throughput[("process", current)]
            assert high >= low * _SCALING_MONOTONE_TOLERANCE, (
                f"process curve dipped: {previous} shards "
                f"{low:,.1f} q/s -> {current} shards {high:,.1f} q/s"
            )
        lines.append(
            f"  gates: process/thread at 4 shards {gate:.2f}x "
            f"(>= {_SCALING_MIN_SPEEDUP}x), process curve monotone "
            f"within {_SCALING_MONOTONE_TOLERANCE:.0%} per step"
        )
    report("\n".join(lines))


def test_no_leaked_worker_processes():
    """Tripwire (runs last): every section reaped its shard workers."""
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked = multiprocessing.active_children()
    assert leaked == [], (
        f"worker processes leaked past cluster.close(): "
        f"{[process.name for process in leaked]}"
    )
