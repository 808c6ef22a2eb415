"""Single-client load loops.

Both loops run in the calling thread: the benchmark never starts a
client thread, so no interpreter-lock handoff between threads can decide
its numbers.  A request is a prebound ``(callable, args)`` pair chosen by
index from a stream; a request that raises counts as failed and the loop
goes on.

Times are read from :func:`pace.clock`, in seconds at the reference
speed; only the loops' own lengths and windows are wall time.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from pace import clock

#: Window of answer sampling (both loops) and closed-loop stop checks.
WINDOW_SECONDS = 0.25

#: Open-loop latency windows hold at least this many requests, so each
#: window's p99 has two samples beyond it.
MIN_LATENCY_WINDOW = 200

#: Answers kept for replay on a reference: the first few of every window.
SAMPLES_PER_WINDOW = 8

#: Turns of closed and open loop in :func:`alternating`.
ROUNDS = 6

Call = tuple[Callable[..., Any], tuple]


@dataclass
class ClosedLoop:
    requests: int
    failed: int
    seconds: float  # clock seconds
    windows: int

    @property
    def qps(self) -> float:
        """Requests answered over the loop's time, every window counted.

        A change that slows only some windows moves it in proportion; a
        median over windows would not.
        """
        return self.requests / self.seconds if self.seconds else 0.0


@dataclass
class OpenLoop:
    latencies: np.ndarray  # clock seconds from due time to completion
    lateness: np.ndarray  # clock seconds from due time to send
    ok: np.ndarray  # False where the request raised

    @property
    def failed(self) -> int:
        return int((~self.ok).sum())

    def met_share(self, limit_seconds: float) -> float:
        """Requests that succeeded within ``limit_seconds``, over all."""
        return float((self.ok & (self.latencies <= limit_seconds)).mean())

    def window_percentile(self, q: float) -> float:
        """The median over windows of each window's ``q``-th latency
        percentile (seconds).

        The reference clock does not take out CPU steal: a stretch in
        which the hypervisor runs another guest delays every request due
        during it.  On a shared box a few such stretches per run would
        otherwise decide a whole-run p99.  The median window is one no
        stall hit.  A window holds :data:`MIN_LATENCY_WINDOW` requests or
        more (the run splits evenly).
        """
        count = max(1, len(self.latencies) // MIN_LATENCY_WINDOW)
        windows = np.array_split(self.latencies, count)
        return statistics.median(float(np.percentile(w, q)) for w in windows)


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def closed_loop(
    calls: Sequence[Call],
    stream: Iterator[int],
    seconds: float,
    samples: list[tuple[int, Any]],
    stop: Callable[[], bool] | None = None,
) -> ClosedLoop:
    """Send the next request as soon as the previous one answers, for
    ``seconds`` (or until ``stop()`` turns true at a window boundary).

    The first :data:`SAMPLES_PER_WINDOW` answers of each window are
    appended to ``samples`` as ``(key, answer)``.
    """
    requests = failed = windows = 0
    busy = 0.0
    deadline = perf_counter() + seconds
    while True:
        window_start = perf_counter()
        if window_start >= deadline or (stop is not None and stop()):
            break
        window_end = min(window_start + WINDOW_SECONDS, deadline)
        done = 0
        now = window_start
        clock_start = clock()
        while now < window_end:
            key = next(stream)
            fn, args = calls[key]
            try:
                answer = fn(*args)
            except Exception:
                failed += 1
            else:
                if done < SAMPLES_PER_WINDOW:
                    samples.append((key, answer))
            done += 1
            now = perf_counter()
        requests += done
        busy += clock() - clock_start
        windows += 1
    return ClosedLoop(requests, failed, busy, windows)


def open_loop(
    calls: Sequence[Call],
    stream: Iterator[int],
    rate: float,
    seconds: float,
    samples: list[tuple[int, Any]],
) -> OpenLoop:
    """Send requests on a fixed schedule of ``rate`` per clock second,
    for ``seconds`` of clock time.

    On the reference clock the offered load is the same share of the
    program's capacity however fast the host runs at the moment.

    Each latency is measured from the request's due time, so a stall
    also charges the requests that queued behind it; ``lateness`` is how
    far behind schedule each request was sent.  Answers are sampled as
    in :func:`closed_loop`, per window's worth of requests.

    The generator spins until a request is due instead of sleeping.  A
    virtual CPU that goes idle is lent to other guests, and getting it
    back delays the wake-up: in three paired rounds on a shared 2-core
    box, a sleeping generator saw two to five times the CPU steal of a
    spinning one.
    """
    count = max(1, int(rate * seconds))
    per_window = max(1, int(rate * WINDOW_SECONDS))
    interval = 1.0 / rate
    latencies = np.empty(count)
    lateness = np.empty(count)
    ok = np.ones(count, dtype=bool)
    begin = clock()
    for position in range(count):
        due = begin + position * interval
        now = clock()
        while now < due:
            now = clock()
        key = next(stream)
        fn, args = calls[key]
        try:
            answer = fn(*args)
        except Exception:
            ok[position] = False
        else:
            if position % per_window < SAMPLES_PER_WINDOW:
                samples.append((key, answer))
        latencies[position] = clock() - due
        lateness[position] = now - due
    return OpenLoop(latencies, lateness, ok)


def alternating(
    calls: Sequence[Call],
    stream: Iterator[int],
    rate: float,
    seconds: float,
    samples: list[tuple[int, Any]],
) -> tuple[ClosedLoop, OpenLoop]:
    """A closed and an open loop in turn, :data:`ROUNDS` times, for
    ``seconds`` in all, half of it in each kind of loop.

    On a shared box whose speed changes every few seconds, two loops run
    one after the other would each sample a different stretch of it;
    taking turns, capacity and latency both sample the whole run.
    """
    share = seconds / (2 * ROUNDS)
    closed: list[ClosedLoop] = []
    opened: list[OpenLoop] = []
    for _ in range(ROUNDS):
        closed.append(closed_loop(calls, stream, share, samples))
        opened.append(open_loop(calls, stream, rate, share, samples))
    return (
        ClosedLoop(
            requests=sum(loop.requests for loop in closed),
            failed=sum(loop.failed for loop in closed),
            seconds=sum(loop.seconds for loop in closed),
            windows=sum(loop.windows for loop in closed),
        ),
        OpenLoop(
            latencies=np.concatenate([loop.latencies for loop in opened]),
            lateness=np.concatenate([loop.lateness for loop in opened]),
            ok=np.concatenate([loop.ok for loop in opened]),
        ),
    )
