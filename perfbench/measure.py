"""Small measurement helpers shared by the benchmark and its self-check."""

from __future__ import annotations

import math
import os
import resource
import statistics
import threading
import time
from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; a tail figure resting on fewer is one slow op, not a tail.
MIN_BEYOND = 10

#: Iterations of the fixed calibration loop: 3-5 ms of pure Python.
CALIB_ITERATIONS = 40_000
#: The calibration loop's time at reference host speed.  Host-adjusted
#: timings equal the measured ones on a host that runs the loop in
#: this time (a 2-vCPU x86-64 VM, Python 3.11, runs it in 3-5 ms).
REFERENCE_CALIB_MS = 4.0
#: How closely the workloads' timings follow the calibration loop's.
#: On a 2-vCPU x86-64 VM whose loop time drifted between 2.3 and 4.8
#: ms, op rates moved with about the 1.5th power of the loop's speed on
#: the interpreter-bound workloads (cc-evaluate, service-mix) and the
#: 1.35th or less where the C compiler runs half the time (fig9-cold):
#: they touch far more memory than the loop, so a busy SMT sibling
#: slows them more.  One value for all keeps every workload's medians
#: within 9% between the fast and the slow host state.
HOST_SENSITIVITY = 1.35
#: Seconds between host-meter samples.
METER_INTERVAL = 0.1
#: Seconds on either side of an op whose meter samples give its speed.
OP_MARGIN = 0.5


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th
    percentile."""
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    return n - math.ceil(p / 100.0 * n)


def percentile(values: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank ``p``-th percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(values)
    if n == 0 or samples_beyond(n, p) < MIN_BEYOND:
        return None
    return sorted(values)[math.ceil(p / 100.0 * n) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to_one_cpu() -> int:
    """Pin this process, and every thread and child it starts later, to
    one CPU of its affinity set; returns that CPU.

    On a shared host each CPU's speed drifts on its own, so a
    :class:`HostMeter` only tracks the speed the workload sees when
    both run on the same CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _calibration_loop() -> int:
    total = 0
    for i in range(CALIB_ITERATIONS):
        total += (i * 7) % 13
    return total


class HostMeter:
    """Host speed over one stretch of a run.

    While active, a daemon thread times the fixed calibration loop in
    its own CPU time every :data:`METER_INTERVAL`, starting at once.  The
    program under test cannot change the loop, so its samples move only
    with the host: an SMT sibling's load, frequency changes.  Sampling
    holds the interpreter lock about 4% of the time, the same on every
    run.
    """

    def __init__(self) -> None:
        #: Loop times in ms, and when each was taken (perf_counter).
        self.samples: List[float] = []
        self.times: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._sample, name="perfbench-host-meter", daemon=True
        )

    def _sample(self) -> None:
        while True:
            start = time.thread_time()
            _calibration_loop()
            self.samples.append((time.thread_time() - start) * 1000.0)
            self.times.append(time.perf_counter())
            if self._stop.wait(METER_INTERVAL):
                return

    def __enter__(self) -> "HostMeter":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def calib_ms(self) -> float:
        """Mean time of the calibration loop, in ms."""
        return statistics.fmean(self.samples)

    @property
    def speed(self) -> float:
        """Mean speed of the loop over the stretch, relative to
        :data:`REFERENCE_CALIB_MS` (1.0 at reference speed)."""
        return _mean_speed(self.samples)

    @property
    def factor(self) -> float:
        """A time measured over the stretch times this, or a rate
        divided by it, reads as at reference speed."""
        return self.speed ** HOST_SENSITIVITY

    def factor_around(self, start: float, end: float) -> float:
        """:attr:`factor` from the samples taken from :data:`OP_MARGIN`
        before ``start`` to :data:`OP_MARGIN` after ``end``; the whole
        stretch's when there are none."""
        window = self.samples[
            bisect_left(self.times, start - OP_MARGIN):
            bisect_right(self.times, end + OP_MARGIN)
        ]
        if not window:
            return self.factor
        return _mean_speed(window) ** HOST_SENSITIVITY


def _mean_speed(samples: Sequence[float]) -> float:
    return statistics.fmean(REFERENCE_CALIB_MS / s for s in samples)
