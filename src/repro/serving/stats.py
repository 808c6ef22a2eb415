"""Per-endpoint serving metrics: call counters, errors, latency percentiles.

Every endpoint of :class:`~repro.serving.AliCoCoService` owns an
:class:`EndpointMetrics` that separates *cached* from *uncached* answers —
the two populations differ by orders of magnitude, so a single mixed
histogram would hide exactly the signal an operator needs (is the cache
absorbing the load, and what does a miss cost?).  Failed requests are
counted separately by exception type, so degraded traffic (bad ids,
invalid arguments) shows up in the stats report instead of vanishing
into the caller's stack traces.

All counters on one :class:`EndpointMetrics` are guarded by a single
lock, so concurrent serving threads can never tear them apart:
``cache_hits + cache_misses == calls`` holds under any interleaving, and
a :meth:`~EndpointMetrics.snapshot` is a consistent cut, never a
mid-update view.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass

from ..utils.timing import LatencyReservoir


class EndpointMetrics:
    """Mutable counters + hit/miss latency reservoirs for one endpoint.

    Thread-safe: one lock serialises every counter update and snapshot.
    ``calls`` counts *answered* queries only; requests that raise are
    tallied in ``errors`` (keyed by exception type name) instead, so
    ``cache_hits + cache_misses == calls`` is an invariant.
    """

    def __init__(self, reservoir_capacity: int = 512, seed: int = 0):
        self.calls = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.errors: Counter[str] = Counter()
        self.hit_latency = LatencyReservoir(reservoir_capacity, seed=seed)
        self.miss_latency = LatencyReservoir(reservoir_capacity, seed=seed + 1)
        self._lock = threading.Lock()

    def record_hit(self, seconds: float) -> None:
        """Count one query answered from the cache."""
        with self._lock:
            self.calls += 1
            self.cache_hits += 1
        self.hit_latency.record(seconds)

    def record_miss(self, seconds: float) -> None:
        """Count one query computed against the store."""
        with self._lock:
            self.calls += 1
            self.cache_misses += 1
        self.miss_latency.record(seconds)

    def record_error(self, error_type: str) -> None:
        """Count one request that raised, keyed by exception type name."""
        with self._lock:
            self.errors[error_type] += 1

    def snapshot(self, endpoint: str) -> "EndpointStats":
        """An immutable summary of the current counters."""
        with self._lock:
            calls = self.calls
            cache_hits = self.cache_hits
            cache_misses = self.cache_misses
            errors = tuple(sorted(self.errors.items()))
        hit = self.hit_latency.percentiles_ms()
        miss = self.miss_latency.percentiles_ms()
        return EndpointStats(
            endpoint=endpoint,
            calls=calls,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            errors=errors,
            hit_p50_ms=hit["p50"],
            hit_p95_ms=hit["p95"],
            hit_p99_ms=hit["p99"],
            miss_p50_ms=miss["p50"],
            miss_p95_ms=miss["p95"],
            miss_p99_ms=miss["p99"],
        )


@dataclass(frozen=True)
class EndpointStats:
    """Frozen per-endpoint serving summary (latencies in milliseconds).

    ``errors`` is a sorted ``(exception type name, count)`` tuple;
    ``calls`` counts successful answers only, so an endpoint's total
    traffic is ``calls + error_total``.
    """

    endpoint: str
    calls: int
    cache_hits: int
    cache_misses: int
    hit_p50_ms: float
    hit_p95_ms: float
    hit_p99_ms: float
    miss_p50_ms: float
    miss_p95_ms: float
    miss_p99_ms: float
    errors: tuple[tuple[str, int], ...] = ()

    @property
    def hit_rate(self) -> float:
        """Cache hits over calls (0.0 before any call)."""
        return self.cache_hits / self.calls if self.calls else 0.0

    @property
    def error_total(self) -> int:
        """Requests that raised, across all exception types."""
        return sum(count for _, count in self.errors)


def endpoint_table(endpoints: tuple["EndpointStats", ...]) -> list[str]:
    """Aligned per-endpoint table rows (header first), for stats reports.

    The endpoint column is sized to the longest endpoint name so long
    names (``items_for_concept_reranked`` is 25 characters) can never
    push the numeric columns out of alignment.
    """
    width = max([len("endpoint")] + [len(stats.endpoint) for stats in endpoints])
    lines = [
        f"  {'endpoint':<{width}} {'calls':>7} {'errors':>7} {'hit%':>6} "
        f"{'miss p50':>10} {'miss p99':>10} {'hit p50':>10}",
    ]
    for stats in endpoints:
        lines.append(
            f"  {stats.endpoint:<{width}} {stats.calls:>7} "
            f"{stats.error_total:>7} "
            f"{stats.hit_rate * 100:>5.1f}% "
            f"{stats.miss_p50_ms:>8.4f}ms {stats.miss_p99_ms:>8.4f}ms "
            f"{stats.hit_p50_ms:>8.4f}ms"
        )
    return lines


@dataclass(frozen=True)
class ServiceStats:
    """Whole-service report: store size, cache state, per-endpoint stats.

    The ``doc_cache_*`` fields describe the doc-side encoding cache of
    the inference fast path (all zero when it is disabled or no
    fast-path reranker is served).  The ``cache_*``/``doc_cache_*``
    counter triples are each taken as one locked snapshot
    (:meth:`repro.serving.cache.LRUCache.counters`), so hits + misses
    always equals the lookups actually made — never a torn mid-update
    read.  ``generation_id`` is the served generation of the service's
    :class:`~repro.kg.generations.GenerationalStore`;
    ``cache_generations`` breaks the result cache's counters into
    per-generation windows (``(label, hits, misses, evictions)``,
    oldest first, open window last).
    """

    nodes: int
    relations: int
    cache_entries: int
    cache_capacity: int
    cache_evictions: int
    endpoints: tuple[EndpointStats, ...]
    doc_cache_entries: int = 0
    doc_cache_capacity: int = 0
    doc_cache_hits: int = 0
    doc_cache_misses: int = 0
    doc_cache_evictions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    generation_id: int = 0
    cache_generations: tuple[tuple[str, int, int, int], ...] = ()

    def endpoint(self, name: str) -> EndpointStats:
        """Stats for one endpoint.

        Raises:
            KeyError: If the endpoint never existed on the service.
        """
        for stats in self.endpoints:
            if stats.endpoint == name:
                return stats
        raise KeyError(f"unknown endpoint {name!r}")

    @property
    def total_calls(self) -> int:
        """Queries answered across all endpoints."""
        return sum(stats.calls for stats in self.endpoints)

    @property
    def total_errors(self) -> int:
        """Requests that raised, across all endpoints and exception types."""
        return sum(stats.error_total for stats in self.endpoints)

    def format_table(self, title: str = "service stats") -> str:
        """Human-readable per-endpoint table for reports."""
        lines = [
            title,
            f"  store: {self.nodes} nodes / {self.relations} relations"
            + (
                f" (generation {self.generation_id})"
                if self.generation_id
                else ""
            ),
            f"  cache: {self.cache_entries}/{self.cache_capacity} "
            f"entries, {self.cache_evictions} evictions",
        ]
        if len(self.cache_generations) > 1:
            windows = ", ".join(
                f"{label}: {hits}h/{misses}m"
                for label, hits, misses, _ in self.cache_generations
            )
            lines.append(f"  cache windows: {windows}")
        if self.doc_cache_capacity:
            lookups = self.doc_cache_hits + self.doc_cache_misses
            rate = self.doc_cache_hits / lookups if lookups else 0.0
            lines.append(
                f"  doc cache: {self.doc_cache_entries}/"
                f"{self.doc_cache_capacity} entries, "
                f"{rate * 100:.1f}% hit rate, "
                f"{self.doc_cache_evictions} evictions"
            )
        lines += endpoint_table(self.endpoints)
        if self.total_errors:
            by_type: dict[str, int] = {}
            for stats in self.endpoints:
                for error_type, count in stats.errors:
                    by_type[error_type] = by_type.get(error_type, 0) + count
            summary = ", ".join(
                f"{error_type} x{count}"
                for error_type, count in sorted(by_type.items())
            )
            lines.append(f"  errors: {summary}")
        return "\n".join(lines)
