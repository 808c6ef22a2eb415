"""Host speed, sampled on a timer, and a clock that runs at a fixed
reference speed.

On a shared virtual machine the speed of a core is not the program's to
set.  On a 2-core box with no CPU steal, a fixed pure-Python loop took
between 2.7 and 4.5 ms from one five-second stretch to the next, and
the cluster_tail closed loop moved with it, from 1843 down to 991 q/s
and back within one minute.  A run of 20 s cannot average that out, and
two sets of ten runs land in different stretches.

So while :func:`sampling` is on, a timer interrupts the client thread
every :data:`INTERVAL_S` and times a fixed probe of interpreter work
there, outside the program's code.  :func:`clock` then advances, between
two probes, by the wall time passed times the reference speed over the
host speed measured by the latest probes::

    d clock = d wall * REFERENCE_S / probe seconds

and stands still while a probe runs, so probes cost the measured code
nothing.  A faster or slower program moves clock time as it moves wall
time; a faster or slower host moves both the program and the probe and
leaves the clock.  Over a few minutes on the same box, 30 full-scale
builds of the same net had a coefficient of variation of 0.22 in wall
time and 0.04 in clock time, and the cluster_tail request rate over
two-second stretches 0.22 and 0.05.  The clock does not take out CPU
steal: while the hypervisor runs another guest, it advances at the
speed last probed.

Every time the benchmark reports is clock time: seconds at the
reference speed.
"""

from __future__ import annotations

import signal
import statistics
from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

#: One probe's duration at the reference speed: about its median on a
#: 2-core x86 box in its quicker stretches.
REFERENCE_S = 30e-6

#: Timer period between probes.
INTERVAL_S = 0.01

#: The probe: lookups of string keys, in a fixed shuffled order, in a
#: small table, the kind of work the program's code does most.  On the
#: box above it tracked the cluster_tail request rate better than an
#: integer loop or lookups in larger tables (which wait on memory that
#: other guests share, and swing far more than the program does).
_TABLE = {f"key-{index}": index for index in range(2000)}
_KEYS = list(_TABLE)
_ORDER = [_KEYS[(index * 7919) % len(_KEYS)] for index in range(600)]

#: Probes whose median sets the speed.
_LAST = 3

#: A process has one interval timer and one SIGALRM handler, so the
#: clock's state is this module's.  ``_state`` is ``(clock at mark, wall
#: time of mark, clock seconds per wall second)``, replaced as one tuple
#: so a read never mixes two probes.
_state: tuple[float, float, float] | None = None
_recent: deque[float] = deque(maxlen=_LAST)
_depth = 0


def _lookups() -> int:
    table = _TABLE
    total = 0
    for key in _ORDER:
        total += table[key]
    return total


def _probe() -> tuple[float, float]:
    """Wall time when the probe began, and its timed pass's duration.

    The first pass is untimed: it brings the table back into the cache
    the program's work has evicted it from, so the timed pass measures
    the core's speed rather than how far away memory is.
    """
    begin = perf_counter()
    _lookups()
    timed = perf_counter()
    _lookups()
    return begin, perf_counter() - timed


def _sample(signum: int, frame: object) -> None:
    """Timer handler: close the stretch since the last probe at the
    speed known so far, probe, and start the next stretch."""
    global _state
    at, mark, speed = _state
    begin, duration = _probe()
    _recent.append(duration)
    _state = (
        at + (begin - mark) * speed,
        perf_counter(),
        REFERENCE_S / statistics.median(_recent),
    )


@contextmanager
def sampling() -> Iterator[None]:
    """Probe the host on a timer for the duration of the block (from the
    main thread; blocks nest)."""
    global _state, _depth
    if _depth == 0:
        _recent.clear()
        for _ in range(_LAST):
            _recent.append(_probe()[1])
        _state = (0.0, perf_counter(), REFERENCE_S / statistics.median(_recent))
        previous = signal.signal(signal.SIGALRM, _sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    _depth += 1
    try:
        yield
    finally:
        _depth -= 1
        if _depth == 0:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            _state = None


def clock() -> float:
    """Seconds at the reference speed since sampling began."""
    at, mark, speed = _state
    return at + (perf_counter() - mark) * speed
