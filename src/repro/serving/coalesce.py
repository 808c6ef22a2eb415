"""Request coalescing: a singleflight micro-batcher for rerank traffic.

Serving traffic is heavy-tailed — hot concepts and hot queries repeat —
and at high concurrency the *same* expensive rerank request is often in
flight several times at once (the classic cache-stampede shape: every
thread misses the result cache before the first one finishes).  The
:class:`Coalescer` collapses that duplicated work: concurrent requests
with the same key are served by **one** computation — one
``score_pool`` call answers the whole batch.  The answers are
bit-identical to serial execution because the computation is
deterministic over a frozen store and frozen weights (the PR 5
bit-identity contract — the coalescer adds no numeric path of its own,
it only *shares* a result that every joiner would have computed
identically).

Mechanics: the first thread to submit a key becomes the **leader** — it
optionally sleeps a small *coalescing window* (letting near-simultaneous
duplicates pile on), computes once, and publishes the result; threads
that find an in-flight leader become **joiners** and just wait on its
event.  Arrivals during the leader's computation still join (maximum
coalescing); arrivals after publication start a fresh flight.  The
leader publishes from a ``finally`` block, so joiners can never hang on
a crashed leader — they re-raise the leader's exception instead
(deterministic validation errors are shared exactly like results).

A window of ``0`` disables the sleep but keeps the singleflight dedup;
that is the latency-neutral default.  A positive window trades a bounded
latency hit on the leader for larger batches under bursty traffic —
``benchmarks/bench_cluster.py`` sweeps the window against throughput.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from ..errors import ConfigError


class _Flight:
    """One in-flight computation: leader's slot plus joiner bookkeeping."""

    __slots__ = ("event", "value", "error", "joined")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None
        self.joined = 0


@dataclass(frozen=True)
class CoalescerStats:
    """Frozen coalescing summary.

    Attributes:
        flights: Computations actually executed (leader runs).
        joined: Requests answered by another request's computation.
        requests: Total submissions (``flights + joined``).
        max_batch: Largest number of requests one flight answered.
        window_seconds: The configured coalescing window.
    """

    flights: int
    joined: int
    requests: int
    max_batch: int
    window_seconds: float

    @property
    def mean_batch(self) -> float:
        """Average requests answered per computation (1.0 = no sharing)."""
        return self.requests / self.flights if self.flights else 0.0


class Coalescer:
    """Thread-safe singleflight map with an optional coalescing window.

    Args:
        window_seconds: How long a leader waits for duplicates to pile on
            before computing.  ``0.0`` (default) computes immediately —
            pure in-flight dedup with no added latency.
        sleep: Injectable sleep (tests replace it to keep wall time at
            zero).

    Raises:
        ConfigError: If the window is negative.
    """

    def __init__(
        self, window_seconds: float = 0.0, sleep: Callable[[float], None] = time.sleep
    ):
        if window_seconds < 0:
            raise ConfigError(f"window_seconds must be >= 0, got {window_seconds}")
        self.window_seconds = window_seconds
        self._sleep = sleep
        self._flights: dict[Hashable, _Flight] = {}
        self._lock = threading.Lock()
        self._flight_count = 0
        self._joined = 0
        self._max_batch = 0

    def submit(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Run ``compute`` for ``key``, sharing any in-flight duplicate.

        Exactly one caller per flight executes ``compute``; the rest
        block until it publishes and then return the same object (or
        re-raise the same exception).  Sharing one result object across
        callers is sound for the serving tier because results are
        immutable tuples over a frozen store.
        """
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[key] = flight
            else:
                flight.joined += 1
                self._joined += 1
        if not leader:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value
        try:
            if self.window_seconds > 0:
                self._sleep(self.window_seconds)
            flight.value = compute()
            return flight.value
        except BaseException as error:
            flight.error = error
            raise
        finally:
            # Unregister *before* publishing: a request arriving after
            # the event is set must start a fresh flight, never read a
            # completed one.  Joiners already registered keep their
            # reference and read the published slots.
            with self._lock:
                self._flights.pop(key, None)
                self._flight_count += 1
                self._max_batch = max(self._max_batch, 1 + flight.joined)
            flight.event.set()

    def stats(self) -> CoalescerStats:
        """A consistent snapshot of the coalescing counters."""
        with self._lock:
            flights = self._flight_count
            joined = self._joined
            max_batch = self._max_batch
        return CoalescerStats(
            flights=flights,
            joined=joined,
            requests=flights + joined,
            max_batch=max_batch,
            window_seconds=self.window_seconds,
        )
