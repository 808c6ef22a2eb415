"""A counting, thread-safe LRU cache for query results.

The paper's net serves heavy, highly repetitive traffic (hot concepts are
queried far more often than the tail), so an LRU over immutable query
results converts most of the load into dictionary lookups.  The cache
counts hits, misses and evictions so :class:`~repro.serving.AliCoCoService`
can surface cache effectiveness in its stats report.

The cache is shared by every serving thread, so one lock guards the
entry map and all three counters together.  That keeps the counters
consistent with each other under contention: every ``get`` (and every
key of a ``get_many``) increments exactly one of ``hits``/``misses``, so
``hits + misses`` always equals the number of lookups, and ``evictions``
never drifts from the entries actually dropped.

Readers of the counters must use :meth:`LRUCache.counters` — one locked
snapshot of all three at once.  Reading the public ``hits``/``misses``/
``evictions`` attributes separately can tear under contention (a lookup
lands between two of the three reads and the report shows
``hits + misses != lookups``); the attributes stay public for
single-threaded inspection and backwards compatibility only.

Generational serving (:mod:`repro.kg.generations`) never clears a live
cache — stale entries are made unreachable by keying them with the
generation id and letting LRU pressure evict them.  What a generation
swap *does* want is attributable hit rates, so the cache keeps a
per-generation counter window: :meth:`begin_generation` closes the
current window and opens a new one, and :meth:`generation_counters`
reports each window separately while the lifetime totals keep counting.
At most :data:`GENERATION_WINDOWS` windows are kept: the oldest two fold
into one, so a long-lived cache stays bounded and its windows still add
up to the lifetime totals.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Sequence

from ..errors import ConfigError

#: Unique sentinel distinguishing "absent" from a cached ``None``.
_ABSENT = object()

#: Counter windows a cache keeps, the open one included.
GENERATION_WINDOWS = 8


@dataclass(frozen=True)
class CacheCounters:
    """One consistent snapshot of a cache's hit/miss/eviction counters.

    Taken under the cache lock, so ``hits + misses`` is exactly the
    number of lookups at snapshot time — the invariant a report can rely
    on, which three separate attribute reads cannot guarantee.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Lookups covered by this snapshot (``hits + misses``)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0


class LRUCache:
    """Least-recently-used mapping with a fixed capacity and counters.

    Safe for concurrent use: lookups, insertions and counter updates are
    serialised by a single internal lock.

    Args:
        capacity: Maximum number of entries; the least recently *used*
            (read or written) entry is evicted first.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigError(f"LRUCache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Per-generation counter windows: closed (label, CacheCounters)
        # snapshots plus the totals at the currently-open window's start.
        self._windows: list[tuple[str, CacheCounters]] = []
        self._window_label = "gen-0"
        self._window_start = CacheCounters()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency; counts a hit or miss."""
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is _ABSENT:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def get_many(self, keys: Sequence[Hashable], default: Any = None) -> list:
        """Look up every key under one lock acquisition, in order.

        Each key counts exactly as one :meth:`get` would — a hit
        (refreshing its recency) or a miss answered with ``default`` — so
        ``hits + misses == lookups`` still holds.
        """
        values = []
        with self._lock:
            entries = self._entries
            for key in keys:
                value = entries.get(key, _ABSENT)
                if value is _ABSENT:
                    self.misses += 1
                    values.append(default)
                else:
                    entries.move_to_end(key)
                    self.hits += 1
                    values.append(value)
        return values

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``, evicting the stalest entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def lookups(self) -> int:
        """Total keys looked up (always ``hits + misses``)."""
        with self._lock:
            return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        with self._lock:
            lookups = self.hits + self.misses
            return self.hits / lookups if lookups else 0.0

    def counters(self) -> CacheCounters:
        """All three counters in one locked snapshot.

        This is the only way to read a *consistent* triple under
        contention; use it anywhere the counters feed a report or an
        invariant check.
        """
        with self._lock:
            return CacheCounters(self.hits, self.misses, self.evictions)

    # ----------------------------------------------------------- generations
    def begin_generation(self, label: str) -> None:
        """Close the current counter window and open one named ``label``.

        Called by the serving tier on a generation swap so post-swap hit
        rate is attributable to the new generation instead of being
        diluted by the lifetime totals.  Lifetime counters keep running;
        only the window bookkeeping changes.  Past
        :data:`GENERATION_WINDOWS`, the two oldest windows fold into one
        labelled ``"<first>..<last>"``.
        """
        with self._lock:
            windows = self._windows
            windows.append((self._window_label, self._window_delta()))
            if len(windows) >= GENERATION_WINDOWS:
                (first, old), (last, new) = windows[:2]
                windows[:2] = [
                    (
                        f"{first.split('..')[0]}..{last}",
                        CacheCounters(
                            old.hits + new.hits,
                            old.misses + new.misses,
                            old.evictions + new.evictions,
                        ),
                    )
                ]
            self._window_label = label
            self._window_start = CacheCounters(self.hits, self.misses, self.evictions)

    def generation_counters(self) -> tuple[tuple[str, CacheCounters], ...]:
        """Per-generation counter windows, oldest first, open window last."""
        with self._lock:
            return (*self._windows, (self._window_label, self._window_delta()))

    def _window_delta(self) -> CacheCounters:
        # Caller holds self._lock.
        start = self._window_start
        return CacheCounters(
            self.hits - start.hits,
            self.misses - start.misses,
            self.evictions - start.evictions,
        )

    def clear(self, reset_counters: bool = False) -> None:
        """Drop every entry.

        Counters are preserved by default (lifetime totals survive a
        flush); ``reset_counters=True`` also zeroes them — and the
        generation windows — so a hit rate measured after the flush is
        not diluted by pre-flush traffic.
        """
        with self._lock:
            self._entries.clear()
            if reset_counters:
                self.hits = 0
                self.misses = 0
                self.evictions = 0
                self._windows = []
                self._window_label = "gen-0"
                self._window_start = CacheCounters()
