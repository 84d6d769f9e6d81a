"""Machine-speed probe: solve times in reference seconds.

On a shared host the speed of a core drifts by up to 40% within a minute,
in CPU time as much as in wall time.  A fixed pure-Python reference loop
slows down with the library's code, so while a job runs the probe times that
loop every INTERVAL_S of wall time from a SIGALRM handler, in the same thread
as the job.  A job's reported time is its CPU time minus the handler's,
scaled by REFERENCE_S over the loop's mean CPU time during the job: the time
the job would take on a host where the loop takes REFERENCE_S.  A faster
library still reads faster; a slower host does not.

CPU time, not wall time, because the job is single-threaded and compute
bound, so the two differ only by the time the host deschedules the process,
and a pause that lands inside a short probe sample would skew its scale.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import Callable

# time between probe samples
INTERVAL_S = 0.02
# nominal time of one reference loop, near its time on an idle core of a
# 2-vCPU x86-64 host under CPython 3.11
REFERENCE_S = 0.0005


def reference_loop() -> int:
    """One probe sample: the kinds of work braidcong's hot loops do.

    Integer arithmetic with tuple keys and dict updates, as in image search
    and normal forms; then dot products by generator and row operations in
    place, as in matrix products and Smith normal form.
    """
    counts: dict[tuple[int, int], int] = {}
    x = 1
    for _ in range(250):
        x = (x * 1103515245 + 12345) % 2147483648
        key = (x & 255, (x >> 8) & 255)
        counts[key] = counts.get(key, 0) + 1
    # built afresh, so its memory layout varies as the library's does
    matrix = [[(7 * i + 3 * j + x) % 11 - 5 for j in range(24)] for i in range(24)]
    columns = tuple(zip(*matrix))
    total = 0
    for row in matrix[:6]:
        for column in columns:
            total += sum(a * b for a, b in zip(row, column))
    row, other = matrix[0], matrix[1]
    for q in range(1, 12):
        for c in range(len(row)):
            row[c] -= q * other[c]
    return len(counts) + total + row[0]


@dataclass(frozen=True)
class Timing:
    raw_s: float  # wall time, probe included
    net_s: float  # CPU time minus the probe's samples
    loop_s: float  # mean CPU time of one reference loop during the call

    @property
    def reference_s(self) -> float:
        return self.net_s * REFERENCE_S / self.loop_s


class SpeedProbe:
    """Times a call and the reference loop alongside it."""

    def __init__(self) -> None:
        self._samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        began = time.process_time()
        reference_loop()
        self._samples.append(time.process_time() - began)

    def measure(self, fn: Callable[[], object]) -> tuple[object, Timing]:
        """Call fn and return its result with its timing; fn's exceptions propagate."""
        self._samples = []
        # one sample up front, so even a call shorter than INTERVAL_S is scaled
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        started = time.perf_counter()
        cpu_started = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            cpu = time.process_time() - cpu_started
            raw = time.perf_counter() - started
            signal.signal(signal.SIGALRM, previous)
        samples = self._samples
        # the first sample ran before the clocks started
        spent = sum(samples) - samples[0]
        return result, Timing(raw, cpu - spent, sum(samples) / len(samples))
