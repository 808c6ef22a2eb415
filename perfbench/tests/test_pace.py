"""The reference clock: probes on a timer, restored on exit."""

import signal
import time

import pytest

import pace


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_clock_runs_only_while_sampling():
    with pytest.raises(TypeError):
        pace.clock()
    with pace.sampling():
        first = pace.clock()
        _busy(0.2)
        second = pace.clock()
    assert 0 <= first < second


def test_clock_advances_with_wall_time_at_the_probed_speed():
    with pace.sampling():
        wall, start = time.perf_counter(), pace.clock()
        _busy(0.3)
        ratio = (pace.clock() - start) / (time.perf_counter() - wall)
        speed = pace._state[2]
    # Probes in the stretch are left out of the clock, and the speed
    # changes from probe to probe, so the ratio is near, not at, it.
    assert 0.5 * speed < ratio < 1.5 * speed


def test_probes_fire_and_the_alarm_is_restored():
    previous = signal.getsignal(signal.SIGALRM)
    with pace.sampling():
        mark = pace._state[1]
        _busy(0.1)
        assert pace._state[1] > mark
        with pace.sampling():  # nested blocks share one timer
            pass
        assert signal.getitimer(signal.ITIMER_REAL)[1] == pytest.approx(
            pace.INTERVAL_S
        )
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
