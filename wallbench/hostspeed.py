"""Host speed: read wall-clock times at one reference speed.

On a shared virtual machine a vCPU runs faster or slower with its
neighbours' load.  On the 2-vCPU host this benchmark was built on, a
fixed pure-Python task took ~0.16 ms in one minute and ~0.34 ms a few
minutes later, and every workload's times moved with it.  So the driver
times that task (the calibration task) right after every ``EVERY_S``
seconds of the timed phase, on each CPU the run uses, and multiplies
every time measured in that window by ``REFERENCE_S`` / the task's time.
A scaled time reads as it would on a host where the task takes
``REFERENCE_S``.

The task is the benchmark's own code: it calls nothing in the library
and runs with the collector off, so neither the library's code nor its
heap changes how long it takes.  It frees what it makes before it
returns, which leaves the collector's counts, and so the library's
collections, as they were.  A change to the library therefore moves
the scaled times as it moves the measured ones.  The calibration pauses
are left out of the timed wall time.
"""

from __future__ import annotations

import gc
import math
import os
import time

#: the calibration task's time on the reference host, in seconds.
REFERENCE_S = 0.2e-3
#: length of a window of the timed phase, in seconds.
EVERY_S = 0.25


def _task() -> int:
    table = {}
    for i in range(400):
        table[f"k{i}"] = [i, str(i), (i, 2 * i)]
    ranked = sorted(table.items(), key=lambda item: item[1][0], reverse=True)
    return sum(len(value[1]) for _key, value in ranked)


def task_seconds(cpus: "list[int] | tuple" = ()) -> float:
    """The calibration task's time now, in seconds.

    The best of three runs on each CPU in ``cpus``, averaged over them;
    with no ``cpus``, on the CPU this thread runs on.
    """
    home = os.sched_getaffinity(0) if cpus else None
    collecting = gc.isenabled()
    gc.disable()
    try:
        times = []
        for cpu in cpus or (None,):
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                _task()
                best = min(best, time.perf_counter() - start)
            times.append(best)
    finally:
        if home is not None:
            os.sched_setaffinity(0, home)
        if collecting:
            gc.enable()
    return sum(times) / len(times)


class Windows:
    """The timed phase cut into windows, each with its own speed factor.

    Call :meth:`tick` after every step and :meth:`close` after the last.
    A window ends at the first tick ``EVERY_S`` seconds after it began;
    the calibration task then runs and gives the window its factor,
    ``REFERENCE_S`` / the task's time.  ``rec`` is the
    :class:`~wallbench.workloads.Recorder` whose latencies the windows
    split.
    """

    def __init__(self, rec, cpus: "list[int] | tuple" = ()) -> None:
        self.rec = rec
        self.cpus = cpus
        #: per window: (latencies, reads, writes recorded by its end,
        #: its measured seconds, its factor).
        self.windows: list[tuple[int, int, int, float, float]] = []
        self._start = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._start >= EVERY_S:
            self.close()

    def close(self) -> None:
        seconds = time.perf_counter() - self._start
        factor = REFERENCE_S / task_seconds(self.cpus)
        rec = self.rec
        self.windows.append((len(rec.latencies), len(rec.read_latencies),
                             len(rec.write_latencies), seconds, factor))
        self._start = time.perf_counter()

    @property
    def wall_s(self) -> float:
        """Measured wall time of the windows, calibration left out."""
        return sum(window[3] for window in self.windows)

    @property
    def reference_wall_s(self) -> float:
        return sum(window[3] * window[4] for window in self.windows)

    def task_ms(self) -> list[float]:
        """The calibration task's time at the end of each window, in ms."""
        return [REFERENCE_S / window[4] * 1e3 for window in self.windows]

    def scaled(self, field: int, samples: list[float]) -> list[float]:
        """``samples`` at the reference speed.  ``field`` says which
        count (0 latencies, 1 reads, 2 writes) splits them."""
        out, begin = [], 0
        for window in self.windows:
            end = window[field]
            out += [sample * window[4] for sample in samples[begin:end]]
            begin = end
        return out
