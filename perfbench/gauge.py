"""A speed gauge for a shared machine: times reported in reference seconds.

The machine this benchmark runs on shares its cores with other tenants, and
its speed drifts by a third or more over seconds to minutes; a raw wall time
measures the neighbours as much as the program.  So while an operation runs
the benchmark also times a fixed kernel, independent of ``seiar``, with the
same instruction mix as the program's hot loops: a Python closure building a
10-vector per call, and small numpy products, in an RK-style stage loop.  An
operation whose own time was ``elapsed`` while one kernel call took ``k`` on
average is reported as ``elapsed * KERNEL_REF_S / k``: its time on a machine
where the kernel takes ``KERNEL_REF_S``.  A change to the program moves
``elapsed`` and not ``k``; a slower phase of the machine moves both.

In-process operations are sampled: a ``SIGALRM`` timer runs one kernel call
at the operation's start and every ``SAMPLE_PERIOD_S`` after, on the same
thread (so on the same core), and the calls' time is taken out of
``elapsed``.  A child process would compete with the samples for the core,
so its time is scaled by kernel calls read right before and right after it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: the kernel call time that reported seconds refer to; near one call on the
#: 2-core machine the benchmark was written on, so reported times stay close
#: to its wall seconds
KERNEL_REF_S = 0.001
SAMPLE_PERIOD_S = 0.025
#: length of the readings around a child process
READ_S = 0.1

_STEPS = 20
_STAGES = np.array([[0.1 * ((i * 7 + j * 3) % 5 - 2) for j in range(10)] for i in range(6)])


def _rhs(y: np.ndarray) -> np.ndarray:
    a, b, c, d, e = y[0], y[1], y[2], y[3], y[4]
    return np.array([-0.1 * a + 0.01 * b * c, 0.1 * a - 0.2 * b, 0.2 * b - 0.3 * c,
                     0.3 * c - d, d - e, 0.5 * e - y[5], y[5] - y[6], y[6] - y[7],
                     y[7] - y[8], y[8] - y[9]])


def kernel() -> float:
    """20 steps of a six-stage explicit scheme on a linear-ish 10-chain."""
    y = np.linspace(1.0, 2.0, 10)
    k = np.empty((6, 10))
    h = 0.01
    err = 0.0
    for _ in range(_STEPS):
        k[0] = _rhs(y)
        for s in range(1, 6):
            k[s] = _rhs(y + h * (_STAGES[s, :s] @ k[:s, :1].ravel()))
        y = y + h * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3]) / 6.0
        err = float(np.sqrt(np.mean((k[4] - k[5]) ** 2)))
    return err


class Gauge:
    """Times operations in wall and in reference seconds."""

    def __init__(self):
        for _ in range(10):  # warm-up
            kernel()
        #: mean kernel call time of every timed operation
        self.readings: list[float] = []
        self._spent = 0.0
        self._calls = 0

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel()
        self._spent += time.perf_counter() - start
        self._calls += 1

    def _read(self, seconds: float) -> None:
        stop = time.perf_counter() + seconds
        while self._calls == 0 or time.perf_counter() < stop:
            self._sample()

    def _result(self, elapsed: float) -> tuple[float, float]:
        k = self._spent / self._calls
        self.readings.append(k)
        return elapsed, elapsed * KERNEL_REF_S / k

    def time_call(self, fn, *args) -> tuple[object, float, float]:
        """Run ``fn(*args)`` in this process under the sampling timer; its
        result, and its own time in wall and in reference seconds."""
        self._spent, self._calls = 0.0, 0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, 1e-6, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed -= self._spent
        if self._calls == 0:  # done before the first signal was handled
            self._sample()
        return (result, *self._result(elapsed))

    def time_child(self, fn, *args) -> tuple[float, float]:
        """Run ``fn(*args)``, which waits on a child process, between two
        readings; its time in wall and in reference seconds."""
        self._spent, self._calls = 0.0, 0
        self._read(READ_S / 2)
        start = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - start
        self._read(READ_S / 2)
        return self._result(elapsed)

    def median_ms(self) -> float:
        return statistics.median(self.readings) * 1e3
