"""Admission control: bounded queueing with 429-style load shedding.

An unbounded serving queue converts overload into unbounded latency —
every queued request waits behind every earlier one, tail latency grows
without limit, and by the time a request is answered its caller has
usually given up.  The :class:`AdmissionController` bounds both axes
instead:

- at most ``max_inflight`` requests execute concurrently;
- at most ``max_queue_depth`` more wait for a slot;
- no request waits longer than ``max_queue_wait_seconds``.

Anything beyond those bounds is **shed** with a typed
:class:`~repro.errors.OverloadedError` (reason ``"queue_full"`` on
arrival, ``"queue_timeout"`` after a bounded wait) — the library's 429.
Shedding is a feature, not a failure: a shed request returns within the
queue-wait bound and tells its caller to back off, while admitted
requests keep their latency distribution intact.

Queue time is *accounted*, not hidden: admitted requests record their
wait in a :class:`~repro.utils.timing.LatencyReservoir` (zero for
requests admitted immediately), shed requests record theirs in a second
reservoir, so the cluster stats report shows where time went —
``queue-wait p99`` rising toward the bound is the saturation signal.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from ..errors import ConfigError, OverloadedError
from ..utils.timing import LatencyReservoir


@dataclass(frozen=True)
class AdmissionStats:
    """Frozen admission-control summary (times in milliseconds).

    Attributes:
        admitted: Requests that received an execution slot.
        shed: Sorted ``(reason, count)`` pairs of rejected requests.
        inflight: Requests executing at snapshot time.
        queued: Requests waiting at snapshot time.
        queue_wait_p50_ms / p95 / p99: Wait-for-slot percentiles over
            admitted requests (immediate admissions count as 0).
        shed_wait_p99_ms: p99 wait of shed requests — bounded by the
            configured queue-wait limit, by construction.
    """

    admitted: int
    shed: tuple[tuple[str, int], ...]
    inflight: int
    queued: int
    queue_wait_p50_ms: float
    queue_wait_p95_ms: float
    queue_wait_p99_ms: float
    shed_wait_p99_ms: float

    @property
    def shed_total(self) -> int:
        """Requests rejected, across both shed reasons."""
        return sum(count for _, count in self.shed)

    @property
    def shed_rate(self) -> float:
        """Shed requests over total arrivals (0.0 before any arrival)."""
        arrivals = self.admitted + self.shed_total
        return self.shed_total / arrivals if arrivals else 0.0


class AdmissionController:
    """Bounded concurrency + bounded queue + bounded wait, or shed.

    Args:
        max_inflight: Concurrent execution slots.
        max_queue_depth: Requests allowed to wait for a slot; ``0``
            sheds immediately whenever all slots are busy.
        max_queue_wait_seconds: Longest a queued request may wait before
            being shed with reason ``"queue_timeout"``.
        reservoir_capacity: Samples retained per wait reservoir.
        seed: Reservoir replacement-RNG seed.
        clock: Injectable monotonic clock (tests pin it).

    Raises:
        ConfigError: On non-positive ``max_inflight`` /
            ``max_queue_wait_seconds`` or negative ``max_queue_depth``.
    """

    def __init__(
        self,
        max_inflight: int,
        max_queue_depth: int,
        max_queue_wait_seconds: float,
        *,
        reservoir_capacity: int = 512,
        seed: int = 0,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if max_inflight <= 0:
            raise ConfigError(f"max_inflight must be positive, got {max_inflight}")
        if max_queue_depth < 0:
            raise ConfigError(f"max_queue_depth must be >= 0, got {max_queue_depth}")
        if max_queue_wait_seconds <= 0:
            raise ConfigError(
                "max_queue_wait_seconds must be positive, got "
                f"{max_queue_wait_seconds}"
            )
        self.max_inflight = max_inflight
        self.max_queue_depth = max_queue_depth
        self.max_queue_wait_seconds = max_queue_wait_seconds
        self._clock = clock
        self._condition = threading.Condition()
        self._active = 0
        self._queued = 0
        self._admitted = 0
        self._shed: Counter[str] = Counter()
        self.queue_wait = LatencyReservoir(reservoir_capacity, seed=seed)
        self.shed_wait = LatencyReservoir(reservoir_capacity, seed=seed + 1)

    @contextmanager
    def admit(self) -> Iterator[float]:
        """Hold one execution slot for the ``with`` body.

        Yields the queue wait in seconds (0.0 when admitted immediately).

        Raises:
            OverloadedError: If the queue is full on arrival or no slot
                frees up within the queue-wait bound.
        """
        waited = self._acquire()
        try:
            yield waited
        finally:
            self._release()

    def _acquire(self) -> float:
        start = self._clock()
        with self._condition:
            if self._active < self.max_inflight:
                self._active += 1
                self._admitted += 1
                self.queue_wait.record(0.0)
                return 0.0
            if self._queued >= self.max_queue_depth:
                self._shed["queue_full"] += 1
                self.shed_wait.record(self._clock() - start)
                raise OverloadedError(
                    f"overloaded: {self._active} in flight and "
                    f"{self._queued}/{self.max_queue_depth} queued; "
                    "retry with backoff",
                    reason="queue_full",
                )
            self._queued += 1
            deadline = start + self.max_queue_wait_seconds
            try:
                while self._active >= self.max_inflight:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        self._shed["queue_timeout"] += 1
                        self.shed_wait.record(self._clock() - start)
                        # A _release() may have woken *this* waiter; the
                        # shed consumes that notification while the slot
                        # stays free.  Hand it on, or another queued
                        # waiter sleeps next to an idle slot until its
                        # own deadline (the lost-wakeup bug).
                        self._condition.notify()
                        raise OverloadedError(
                            "overloaded: no execution slot freed within "
                            f"{self.max_queue_wait_seconds * 1e3:.0f}ms; "
                            "retry with backoff",
                            reason="queue_timeout",
                        )
                    self._condition.wait(remaining)
                self._active += 1
                self._admitted += 1
            finally:
                self._queued -= 1
            waited = self._clock() - start
            self.queue_wait.record(waited)
            return waited

    def _release(self) -> None:
        with self._condition:
            self._active -= 1
            self._condition.notify()

    @property
    def inflight(self) -> int:
        """Requests currently holding an execution slot."""
        with self._condition:
            return self._active

    @property
    def queued(self) -> int:
        """Requests currently waiting for a slot."""
        with self._condition:
            return self._queued

    def stats(self) -> AdmissionStats:
        """A consistent snapshot of the admission counters.

        Counters *and* wait percentiles are read under the condition
        lock: every counted admission/shed records its wait sample
        before releasing it, so reading the reservoirs after dropping
        the lock could pair ``admitted`` from before a burst with
        percentiles from after it (the torn-snapshot bug).  The
        reservoirs' own locks are leaves — taking them inside the
        condition lock cannot deadlock.
        """
        with self._condition:
            admitted = self._admitted
            shed = tuple(sorted(self._shed.items()))
            inflight = self._active
            queued = self._queued
            wait = self.queue_wait.percentiles_ms()
            shed_wait_p99 = self.shed_wait.percentiles_ms()["p99"]
        return AdmissionStats(
            admitted=admitted,
            shed=shed,
            inflight=inflight,
            queued=queued,
            queue_wait_p50_ms=wait["p50"],
            queue_wait_p95_ms=wait["p95"],
            queue_wait_p99_ms=wait["p99"],
            shed_wait_p99_ms=shed_wait_p99,
        )
