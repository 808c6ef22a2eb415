"""The two workloads, each driven from one process by one client thread.

- ``cluster_tail``: the default 2-shard cluster gets a cycle of more
  distinct requests than the result cache holds, so every request
  misses: routing, scatter and merge around retrieval, fusion, doc
  encoding and pool scoring on the shards.
- ``evolve_rw``: a service over an auto-compacting generational store;
  evolution cycles run inline at fixed positions between fixed batches
  of reads, Zipf-skewed over a few hundred keys on all eight endpoints.
  Every publish retires the generation-keyed cache entries and extends
  the indexes.

On cluster_tail, capacity is a closed loop and latency an open loop at
one fixed rate, well below capacity.  evolve_rw has no open loop: an
inline writer would charge its cycles to every read due during them.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from time import perf_counter
from typing import Any

import numpy as np
from repro.kg import flatten
from repro.kg.ids import ECOMMERCE_PREFIX
from repro.pipeline.evolve import EvolutionConfig, EvolutionDriver
from repro.serving import AliCoCoCluster, AliCoCoService

import layers
from loops import alternating, closed_loop, percentile
from machine import peak_rss_mb
from pace import clock, sampling
from spans import Tracer
from system import SERVICE_CONFIG, Scale, Setup, close, setup
from traffic import Catalog, cycle_indices, hot_keys, tail_cycle, zipf_indices


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one kind of system under test.

    Attributes:
        system: ``"cluster"`` or ``"generational"``.
        traffic: ``"hot"`` (Zipf over hot keys) or ``"tail"`` (a cycle
            of distinct requests).
        rate: Open-loop requests per second; 0 for no open loop.
        slo_ms: The latency limit ``slo_met_share`` counts against.
    """

    name: str
    system: str
    traffic: str
    rate: float
    slo_ms: float


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("cluster_tail", "cluster", "tail", rate=400, slo_ms=10.0),
        Workload("evolve_rw", "generational", "hot", rate=0, slo_ms=2.0),
    )
}

#: End-to-end metric units, in report order.
END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "warm_start_s": "s",
    "qps": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "slo_met_share": "share",
    "freshness_p50_ms": "ms",
    "freshness_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: The evolution cycles' own knobs; the cycle seed comes from the traffic.
EVOLUTION = dict(
    n_good=3, n_bad=2, n_queries=24, n_guides=16, publish_min_nodes=1, cycle_interval=0
)


@dataclass
class Outcome:
    """What one pass measured, and its operation counts."""

    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    details: dict[str, Any] = field(default_factory=dict)


@dataclass
class _Traffic:
    keys: list
    stream: Any
    evolve_seed: int


def _traffic(workload: Workload, scale: Scale, seed: int, built) -> _Traffic:
    rng = np.random.default_rng(seed)
    catalog = Catalog.of(built)
    if workload.traffic == "hot":
        keys = hot_keys(catalog, rng, scale.hot_per_endpoint)
        stream = zipf_indices(rng, len(keys))
    else:
        keys = tail_cycle(catalog, rng, scale.tail_cycle)
        stream = cycle_indices(len(keys))
    return _Traffic(keys, stream, int(rng.integers(2**31)))


def _bind(system: Any, keys: list, wrap=None) -> list:
    """Prebound ``(callable, args)`` per key; ``wrap`` makes each call a
    root span in a traced pass."""
    calls = []
    for endpoint, args in keys:
        fn = getattr(system, endpoint)
        calls.append((partial(wrap, fn) if wrap else fn, args))
    return calls


def _warm_up(workload: Workload, traffic: _Traffic, calls: list) -> int:
    """Untimed: every hot key once (all cached after), or one full tail
    cycle (the doc cache holds what the tail touches after).  Returns
    the number of requests that raised.

    Then the heap is collected and frozen out of the cyclic collector,
    as a long-running server holding a static net would do: otherwise a
    full collection rescans the whole net (about 55 ms at full scale on a
    2-core box) at moments that differ from run to run.  Garbage made
    during the timed phases is still collected.
    """
    failed = 0
    if workload.traffic == "hot":
        order = range(len(calls))
    else:
        order = islice(traffic.stream, len(calls))
    for key in order:
        fn, args = calls[key]
        try:
            fn(*args)
        except Exception:
            failed += 1
    gc.collect()
    gc.freeze()
    return failed


def _replay(samples: list, keys: list, reference: Any) -> int:
    """Answers in ``samples`` that the reference does not reproduce."""
    mismatches = 0
    for key, answer in samples:
        endpoint, args = keys[key]
        try:
            expected = getattr(reference, endpoint)(*args)
        except Exception:
            mismatches += 1
            continue
        mismatches += expected != answer
    return mismatches


def _counters(system: Any) -> dict[str, float]:
    """Cache, fan-out, coalescing and admission counters from stats()."""
    stats = system.stats()
    hits = sum(endpoint.cache_hits for endpoint in stats.endpoints)
    misses = sum(endpoint.cache_misses for endpoint in stats.endpoints)
    services = stats.shards if isinstance(system, AliCoCoCluster) else (stats,)
    doc_hits = sum(service.doc_cache_hits for service in services)
    doc_misses = sum(service.doc_cache_misses for service in services)
    counters = {
        "result_hits": hits,
        "result_lookups": hits + misses,
        "doc_hits": doc_hits,
        "doc_lookups": doc_hits + doc_misses,
    }
    if isinstance(system, AliCoCoCluster):
        counters["shard_calls"] = sum(stats.shard_calls)
        counters["coalesce_joined"] = stats.coalescer.joined
        counters["coalesce_requests"] = stats.coalescer.requests
        counters["shed"] = stats.admission.shed_total
    return counters


def _delta(after: dict, before: dict) -> dict:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def _setups(workload: Workload, scale: Scale, repeats: int) -> tuple[list, Setup]:
    """``repeats`` independent set-ups; returns every set-up's
    :meth:`~system.Setup.timings` and the last set-up, whose system is
    the one under test."""
    timings = []
    last = None
    for _ in range(repeats):
        if last is not None:
            close(last.sut)
            last = None
            gc.collect()
        last = setup(scale, workload.system)
        timings.append(last.timings())
    return timings, last


def _evolve(
    sut: AliCoCoService,
    driver: EvolutionDriver,
    calls: list,
    stream: Any,
    reads_per_cycle: int,
    publishing_cycles: int,
    tracer: Tracer | None = None,
) -> dict[str, Any]:
    """Cycles and read batches, inline, until ``publishing_cycles``
    cycles have published.

    A cycle's freshness runs from its start until ``search`` has
    returned every concept it published.  Reads are timed one by one
    (service time).  Both are clock times.  The last batch, read at the
    final generation, is kept for replay.
    """
    run_cycle = driver.run_cycle
    if tracer is not None:
        run_cycle = partial(tracer.call, layers.CYCLE, driver.run_cycle)
    read_latencies: list[float] = []
    freshness: list[float] = []
    failed = cycles = published = 0
    last_batch: list = []
    store = sut.store
    concepts = store.current().count_nodes(ECOMMERCE_PREFIX)
    while published < publishing_cycles and cycles < 3 * publishing_cycles:
        start = clock()
        report = run_cycle()
        cycles += 1
        if report.published_generation is not None:
            view = store.current()
            fresh = list(islice(view.nodes(ECOMMERCE_PREFIX), concepts, None))
            concepts += len(fresh)
            for node in fresh:
                if tracer is not None:
                    hits = tracer.call(layers.FRESHNESS, sut.search, node.text)
                else:
                    hits = sut.search(node.text)
                failed += node.id not in {hit for hit, _ in hits}
            freshness.append(clock() - start)
            published += 1
        last_batch = []
        for _ in range(reads_per_cycle):
            key = next(stream)
            fn, args = calls[key]
            begin = clock()
            try:
                answer = fn(*args)
            except Exception:
                answer = None
                failed += 1
            read_latencies.append(clock() - begin)
            last_batch.append((key, answer))
    return {
        "read_latencies": np.array(read_latencies),
        "freshness": np.array(freshness),
        "cycles": cycles,
        "published": published,
        "failed": failed + (publishing_cycles - published),
        "last_batch": last_batch,
    }


def _driver(built, sut: AliCoCoService, seed: int) -> EvolutionDriver:
    return EvolutionDriver.from_build(
        built, sut, config=EvolutionConfig(seed=seed, **EVOLUTION)
    )


def _publishing_cycles(scale: Scale, seconds: float) -> int:
    return max(scale.min_cycles, int(scale.cycles_per_second * seconds))


def _reference(workload: Workload, state: Setup) -> AliCoCoService:
    """Answers to replay against: a single service over the cluster's
    store, or over ``flatten()`` of the final generation."""
    models = state.models
    store = state.sut.store
    if workload.system == "generational":
        store = flatten(store)
    return AliCoCoService(
        store, config=SERVICE_CONFIG, tagger=models.tagger, reranker=models.reranker
    )


def _serve(
    workload: Workload, scale: Scale, seed: int, seconds: float, state: Setup
) -> Outcome:
    """Warm-up, closed and open loop in turn, and replay on a set-up
    system."""
    traffic = _traffic(workload, scale, seed, state.built)
    calls = _bind(state.sut, traffic.keys)
    failed = _warm_up(workload, traffic, calls)
    samples: list = []
    closed, opened = alternating(calls, traffic.stream, workload.rate, seconds, samples)
    rss = peak_rss_mb()
    mismatches = _replay(samples, traffic.keys, _reference(workload, state))
    latencies = opened.latencies
    return Outcome(
        metrics={
            "qps": closed.qps,
            "p50_ms": 1e3 * percentile(latencies, 50),
            "p99_ms": 1e3 * opened.window_percentile(99),
            "slo_met_share": opened.met_share(workload.slo_ms / 1e3),
            "peak_rss_mb": rss,
        },
        attempted=len(calls) + closed.requests + len(latencies),
        failed=failed + closed.failed + opened.failed + mismatches,
        details={
            "closed_windows": closed.windows,
            "open_requests": len(latencies),
            "whole_run_p99_ms": 1e3 * percentile(latencies, 99),
            "max_latency_ms": 1e3 * float(latencies.max()),
            "late_p50_us": 1e6 * percentile(opened.lateness, 50),
            "late_p99_us": 1e6 * percentile(opened.lateness, 99),
            "replayed": len(samples),
            "mismatches": mismatches,
        },
    )


def _evolve_rw(
    workload: Workload, scale: Scale, seed: int, seconds: float, state: Setup
) -> Outcome:
    """Warm-up, then the inline cycle/read sequence and replay."""
    traffic = _traffic(workload, scale, seed, state.built)
    calls = _bind(state.sut, traffic.keys)
    failed = _warm_up(workload, traffic, calls)
    driver = _driver(state.built, state.sut, traffic.evolve_seed)
    run = _evolve(
        state.sut,
        driver,
        calls,
        traffic.stream,
        scale.reads_per_cycle,
        _publishing_cycles(scale, seconds),
    )
    rss = peak_rss_mb()
    mismatches = _replay(run["last_batch"], traffic.keys, _reference(workload, state))
    reads = run["read_latencies"]
    limit = workload.slo_ms / 1e3
    return Outcome(
        metrics={
            "qps": len(reads) / reads.sum(),
            "p50_ms": 1e3 * percentile(reads, 50),
            "p99_ms": 1e3 * percentile(reads, 99),
            "slo_met_share": float((reads <= limit).mean()),
            "freshness_p50_ms": 1e3 * percentile(run["freshness"], 50),
            "freshness_p95_ms": 1e3 * percentile(run["freshness"], 95),
            "peak_rss_mb": rss,
        },
        attempted=len(calls) + len(reads) + run["cycles"],
        failed=failed + run["failed"] + mismatches,
        details={
            "cycles": run["cycles"],
            "publishing_cycles": run["published"],
            "replayed": len(run["last_batch"]),
            "mismatches": mismatches,
            "generation": state.sut.generation_id,
        },
    )


def _measure(workload: Workload):
    return _evolve_rw if workload.system == "generational" else _serve


def _readiness(outcome: Outcome, unsearchable: list[int], concepts: int) -> None:
    """Count every set-up's readiness searches; a miss is a failure."""
    outcome.attempted += len(unsearchable) * concepts
    outcome.failed += sum(unsearchable)


def _paced(measure, *args) -> Outcome:
    """``measure(*args)``, with the run's clock seconds per wall second
    (the host's mean speed against the reference) in its details."""
    wall, start = perf_counter(), clock()
    outcome = measure(*args)
    outcome.details["clock_per_wall"] = (clock() - start) / (perf_counter() - wall)
    return outcome


def run(name: str, seed: int, seconds: float, scale: Scale) -> Outcome:
    """One untraced run: every end-to-end metric of the workload."""
    with sampling():
        return _paced(_run, name, seed, seconds, scale)


def _run(name: str, seed: int, seconds: float, scale: Scale) -> Outcome:
    workload = WORKLOADS[name]
    timings, state = _setups(workload, scale, scale.setup_repeats)
    try:
        outcome = _measure(workload)(workload, scale, seed, seconds, state)
    finally:
        close(state.sut)
        gc.unfreeze()
    _readiness(
        outcome, [t["unsearchable"] for t in timings], len(state.built.concepts)
    )
    for metric in ("setup_s", "build_s", "warm_start_s"):
        outcome.metrics[metric] = statistics.median(t[metric] for t in timings)
    if workload.system != "generational":
        # A frozen net takes new concepts only through a rebuild: its
        # freshness is each set-up's refresh time (build, snapshot, warm
        # start, readiness; training aside).  Three set-ups make the
        # "p95" the slowest of three.
        refresh = [t["refresh_s"] for t in timings]
        outcome.metrics["freshness_p50_ms"] = 1e3 * statistics.median(refresh)
        outcome.metrics["freshness_p95_ms"] = 1e3 * max(refresh)
    outcome.metrics = {metric: outcome.metrics[metric] for metric in END_TO_END}
    return outcome


def _traced_pass(
    workload: Workload,
    scale: Scale,
    seed: int,
    seconds: float,
    state: Setup,
    tracer: Tracer,
) -> Outcome:
    """The workload's reads (and cycles) with every read a root span.

    Warm-up spans are dropped; the set-up's spans stay for the
    serialize and build metrics.  A serve workload traces only its
    closed loop, until half the run or the span budget is spent.
    """
    traffic = _traffic(workload, scale, seed, state.built)
    failed = _warm_up(workload, traffic, _bind(state.sut, traffic.keys))
    tracer.keep({span.id for span in tracer.spans if span.name == layers.SETUP})
    tracer.counts.clear()
    calls = _bind(state.sut, traffic.keys, wrap=partial(tracer.call, layers.READ))
    before = _counters(state.sut)
    if workload.system == "generational":
        driver = _driver(state.built, state.sut, traffic.evolve_seed)
        layers.trace_driver(tracer, driver)
        run = _evolve(
            state.sut,
            driver,
            calls,
            traffic.stream,
            scale.reads_per_cycle,
            _publishing_cycles(scale, seconds),
            tracer=tracer,
        )
        qps = len(run["read_latencies"]) / run["read_latencies"].sum()
        samples = run["last_batch"]
        attempted = len(run["read_latencies"]) + run["cycles"]
        failed += run["failed"]
    else:
        samples = []
        closed = closed_loop(
            calls, traffic.stream, seconds / 2, samples, stop=lambda: tracer.full
        )
        qps = closed.qps
        attempted = closed.requests
        failed += closed.failed
    counters = _delta(_counters(state.sut), before)
    failed += _replay(samples, traffic.keys, _reference(workload, state))
    return Outcome(
        metrics={"qps": qps},
        attempted=attempted + len(calls),
        failed=failed,
        details={"counters": counters, "spans": len(tracer)},
    )


def run_traced(
    name: str, seed: int, seconds: float, scale: Scale, tracer: Tracer
) -> Outcome:
    """One traced run: every per-layer metric of the workload.

    An untraced pass over one set-up measures the baseline read rate and
    the open loop's lateness; then a second set-up and the same traffic
    run with every wrapper installed.
    """
    with sampling():
        return _paced(_run_traced, name, seed, seconds, scale, tracer)


def _run_traced(
    name: str, seed: int, seconds: float, scale: Scale, tracer: Tracer
) -> Outcome:
    workload = WORKLOADS[name]
    _, state = _setups(workload, scale, 1)
    try:
        baseline = _measure(workload)(workload, scale, seed, seconds, state)
    finally:
        close(state.sut)
        gc.unfreeze()
    _readiness(baseline, [state.unsearchable], len(state.built.concepts))
    state = None
    gc.collect()
    with layers.installed(tracer):
        state = tracer.call(layers.SETUP, setup, scale, workload.system)
        try:
            traced = _traced_pass(workload, scale, seed, seconds, state, tracer)
        finally:
            close(state.sut)
            gc.unfreeze()
    metrics = layers.layer_metrics(
        tracer,
        counters=traced.details["counters"],
        build_stages=state.built.timings.stages,
        train_seconds=state.train_s,
        lateness={
            "p50_us": baseline.details.get("late_p50_us", 0.0),
            "p99_us": baseline.details.get("late_p99_us", 0.0),
        },
        traced_qps=traced.metrics["qps"],
        untraced_qps=baseline.metrics["qps"],
    )
    outcome = Outcome(
        metrics=metrics,
        attempted=baseline.attempted + traced.attempted,
        failed=baseline.failed + traced.failed,
        details={"spans": traced.details["spans"]},
    )
    _readiness(outcome, [state.unsearchable], len(state.built.concepts))
    return outcome
