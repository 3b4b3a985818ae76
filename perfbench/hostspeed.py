"""Host speed sampler: a fixed piece of CPU work, timed again and again
while an invocation runs.

The benchmark's host is a shared virtual machine.  Each of its vCPUs
switches, every few seconds and independently of the other, between a
fast state and one about 1.4 times slower, and a CPU-bound invocation
slows with the vCPU it runs on.  An invocation is therefore pinned to one
vCPU, and a thread of its own times the probe below on that vCPU every
PERIOD_S seconds.  The probe is timed in thread CPU time, so the time the
thread waits for the CPU or for the interpreter lock does not count; what
does count is how fast the vCPU executes.  The probe is the benchmark's own
code and calls nothing in the package, so a change to the package cannot
move it.

The probe is an arithmetic loop and numpy calls on 64x64 arrays, so its
data stay in the first-level caches.  A probe with a larger working set
would measure how much of the cache the invocation's own work evicted
between samples, and so would move when the package's memory use does.
Of the other probes tried, one that streamed a 2 MB array tracked the
workloads' slowdown worse (the slow state is not a memory-bandwidth limit),
and one that made random lookups in a 64k-entry dict tracked it only a
little better, at the price of that coupling.  One made of numpy calls on
8-element arrays tracked hazard-quad-T400 and criterion-ou-pair better, but
over-corrected the array-bound ou-quad-T800 and hazard-egamma-T1e4 by more.

run.py rescales each invocation's times by REFERENCE_PROBE_S over the
invocation's mean probe time: the times it reports are those of a host on
which the probe takes REFERENCE_PROBE_S.
"""

from __future__ import annotations

import threading
import time

import numpy as np

PERIOD_S = 0.1
REFERENCE_PROBE_S = 0.0015   # about the probe's time in the fast state of the defining VM

_X = np.linspace(0.0, 5.0, 64)


def probe_work() -> float:
    """About 1.5 ms of interpreter and small-array numpy work."""
    s = 0.0
    for i in range(6000):
        s += (i * 0.5 + 1.0) / (1.0 + abs(s) * 1e-9)
    for _ in range(30):
        s += float(np.exp(-np.abs(_X[:, None] - _X[None, :])).sum())
    return s


class Sampler:
    """Times probe_work every PERIOD_S seconds in a daemon thread."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="hostspeed", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.samples.append(_timed_probe())

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> float:
        """Stop sampling; the mean probe time (one more probe if none ran)."""
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self.samples.append(_timed_probe())
        return sum(self.samples) / len(self.samples)


def _timed_probe() -> float:
    t0 = time.thread_time()
    probe_work()
    return time.thread_time() - t0
