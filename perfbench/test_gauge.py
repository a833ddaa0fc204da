"""Self-tests of the speed gauge: it returns the result, scales by the
kernel's speed and leaves no timer or handler behind.

Run from the root of the checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import signal
import subprocess
import sys

import gauge


def _busy(n: int) -> int:
    return sum(i * i for i in range(n))


def test_time_call_returns_result_and_restores_the_timer():
    meter = gauge.Gauge()
    before = signal.getsignal(signal.SIGALRM)
    result, elapsed, scaled = meter.time_call(_busy, 300_000)
    assert result == _busy(300_000)
    assert elapsed > 0
    assert scaled == elapsed * gauge.KERNEL_REF_S / meter.readings[-1]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_samples_are_taken_out_of_the_operation_time():
    meter = gauge.Gauge()
    calls = []
    meter.time_call(lambda: calls.append(_busy(2_000_000)))
    # a run of some tenths of a second is sampled more than once
    assert meter._calls > 1
    assert meter._spent > 0


def test_a_child_is_timed_between_readings():
    meter = gauge.Gauge()
    elapsed, scaled = meter.time_child(
        lambda: subprocess.run([sys.executable, "-c", "pass"], check=True))
    assert elapsed > 0 and scaled > 0
    assert len(meter.readings) == 1
