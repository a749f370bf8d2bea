"""Host-speed probe: scales host times to one reference speed.

The benchmark runs on a few cores of a shared host whose speed moves in
phases: a fixed loop of Python arithmetic takes 11 ms in one phase and
up to 23 ms in the next, and a phase lasts from seconds to minutes, so a
whole run can land in one.  Timed alone, the program measures its
neighbours as much as itself.

:meth:`HostSpeed.sample` runs :func:`probe_work`, a fixed loop that uses no
simulator code, and records the CPU time of the calling thread it took:
time spent waiting for a core or the GIL does not count, so a sample
reads the hardware's speed, not how busy the benchmark keeps it.  Serial
units are probed on the thread that runs them, just before and just
after (the probe then runs on the core the unit ran on); a unit that
runs on pool workers is probed by :meth:`HostSpeed.background` every
:data:`PERIOD_S` while it runs, on whichever core is free.
:meth:`HostSpeed.scaled` turns a host-time interval into *reference seconds*: the
interval times :data:`REFERENCE_PROBE_S` over the median of the samples
around it.  A change to the program moves scaled times exactly as it
moves host times.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time
from typing import Iterator, List, Tuple

#: CPU seconds one :func:`probe_work` takes on the reference host (a
#: 2-vCPU x86-64 VM, CPython 3.11) in its fast phase.  Scaled times are
#: host times on a host that fast.
REFERENCE_PROBE_S = 0.0107

#: Seconds between the samples of :meth:`HostSpeed.background`.
PERIOD_S = 0.2

#: A sample counts for an interval if it ends at most this long before
#: the interval starts or begins at most this long after it ends.
_SLACK_S = 0.05

_LOOPS = 200_000


def probe_work() -> int:
    total = 0
    for i in range(_LOOPS):
        total += i * i
    return total


class HostSpeed:
    """The probe samples of one run, and the scaling they give."""

    def __init__(self) -> None:
        #: (perf_counter at the start, at the end, CPU seconds) per sample.
        self.samples: List[Tuple[float, float, float]] = []

    def sample(self) -> None:
        """Run :func:`probe_work` once now and keep its CPU time."""
        started = time.perf_counter()
        cpu = time.thread_time()
        probe_work()
        cpu = time.thread_time() - cpu
        self.samples.append((started, time.perf_counter(), cpu))

    @contextlib.contextmanager
    def background(self) -> Iterator[None]:
        """Sample every :data:`PERIOD_S` on a thread while the block runs.

        The pool inside the block forks its workers while this thread
        runs; the thread holds no lock but the GIL, which the fork
        handles, and the workers never touch it.
        """
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(PERIOD_S):
                self.sample()

        thread = threading.Thread(target=loop, name="hostspeed", daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def probe_s(self, start: float, end: float) -> float:
        """Median CPU time of the samples taken in or next to
        ``[start, end]``."""
        around = [
            cpu for began, ended, cpu in self.samples
            if ended >= start - _SLACK_S and began <= end + _SLACK_S
        ]
        if not around:
            raise RuntimeError("no host-speed sample was taken around a unit")
        return statistics.median(around)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the host interval ``[start, end]``."""
        return (end - start) * REFERENCE_PROBE_S / self.probe_s(start, end)
