"""The host's speed, probed on each core alongside a run, and times rescaled to it.

On a shared virtual machine the speed a core gives drifts by up to 1.7x
over seconds to minutes, differently on each core, and a process's CPU
time drifts with it, so two runs of the same code minutes apart differ by
more than any useful bound.  The benchmark's driver process (not the
workload's) runs one probe thread pinned to each core it may use.  Every
PERIOD_S a probe runs a fixed pure-Python loop of about 2 ms and records
the loop's thread CPU time: waiting for a core that the workload keeps busy
does not count, a slower core does.

`SpeedClock.elapsed(a, b)` is the time from `a` to `b` at the reference
speed: the integral over the interval of REFERENCE_S / probe time, the
probe time being a rolling median of WINDOW samples, averaged over the
cores the clock is given.  A program that does half the work takes half as
long on it; a core that runs at half speed does not change it.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

# The probe loop's median thread CPU time on the 2-vCPU Xeon VM the
# benchmark was defined on.  It only sets the scale of rescaled times.
REFERENCE_S = 0.0018
PERIOD_S = 0.05
WINDOW = 9
LOOP = 20_000


def _loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


class Probe:
    """Context manager: one thread per core sampling its speed until exit.

    `samples[cpu]` holds (midpoint on the time.perf_counter clock, thread
    CPU seconds of one loop).  perf_counter is CLOCK_MONOTONIC, shared with
    the workload's processes, so their time stamps compare with these.
    """

    def __init__(self, cpus: list[int]) -> None:
        self.samples: dict[int, list[tuple[float, float]]] = {cpu: [] for cpu in cpus}
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, args=(cpu,), name=f"speed-probe-{cpu}", daemon=True)
            for cpu in cpus
        ]

    def __enter__(self) -> "Probe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        samples = self.samples[cpu]
        while not self._stop.is_set():
            t0 = time.perf_counter()
            c0 = time.thread_time()
            _loop()
            used = time.thread_time() - c0
            samples.append(((t0 + time.perf_counter()) / 2, used))
            self._stop.wait(PERIOD_S)


class _CoreClock:
    """Time at the reference speed on one core."""

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        if not samples:
            raise ValueError("the speed probe recorded no sample")
        samples = sorted(samples)
        times = [t for t, _ in samples]
        used = [c for _, c in samples]
        half = WINDOW // 2
        self.speeds = [
            REFERENCE_S / statistics.median(used[max(0, i - half): i + half + 1])
            for i in range(len(used))
        ]
        # Sample i's speed holds from the midpoint with its predecessor to
        # the midpoint with its successor; the first and last extend outwards.
        self._edges = [(a + b) / 2 for a, b in zip(times, times[1:])]
        self._cum = [0.0]
        for j in range(1, len(self._edges)):
            self._cum.append(self._cum[-1] + self.speeds[j] * (self._edges[j] - self._edges[j - 1]))

    def integral(self, t: float) -> float:
        """Integral of the speed from the first edge (or 0) to t."""
        if not self._edges:
            return self.speeds[0] * t
        i = bisect.bisect_right(self._edges, t)
        if i == 0:
            return -self.speeds[0] * (self._edges[0] - t)
        return self._cum[i - 1] + self.speeds[i] * (t - self._edges[i - 1])


class SpeedClock:
    """Time at the reference speed, averaged over the probed cores given."""

    def __init__(self, samples: list[list[tuple[float, float]]]) -> None:
        self._cores = [_CoreClock(s) for s in samples]

    def speed_range(self) -> tuple[float, float, float]:
        """Lowest, median and highest speed, as shares of the reference."""
        speeds = [s for core in self._cores for s in core.speeds]
        return min(speeds), statistics.median(speeds), max(speeds)

    def elapsed(self, start: float, end: float) -> float:
        return statistics.fmean(core.integral(end) - core.integral(start) for core in self._cores)
