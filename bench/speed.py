"""Machine-speed reference: a fixed kernel timed between the instances of a run.

On a shared machine the CPU time of the same work drifts with what the other
tenants run: a fixed pure-Python loop ran between 14 ms and 23 ms per call
within one minute on a 2-core VM, and its median over a 30-second run spread
by 12-17% over ten runs (first to third quartile over the median).  CPU time does not remove this (the process is
not descheduled; each instruction is slower), and a longer run does not
either (the slow stretches last tens of seconds).

So every run also times ``kernel()``, a fixed piece of pure-Python graph
work that calls nothing in the package, every ``INTERVAL_S`` of CPU time
between instances.  Each instance's time is then reported at the reference
speed:

    time_at_ref = cpu_time * REF_KERNEL_S / local_kernel_time

where ``local_kernel_time`` is the median of the kernel samples taken
around the instance.  A change to the program moves ``cpu_time`` and leaves
the kernel alone; a slower stretch of the machine moves both.  The raw CPU
times are kept next to the scaled ones in the result file.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

# About the kernel's median CPU time on the 2-core x86-64 VM (CPython 3) the
# benchmark was written on.  It only fixes the scale of the reported times;
# a comparison of two commits on one machine does not depend on it.
REF_KERNEL_S = 0.002
INTERVAL_S = 0.05
WINDOW_S = 0.25
MIN_SAMPLES = 5


def _reference_graph(n=400, extra=400, seed=20100413):
    rng = random.Random(seed)
    adj = [[] for _ in range(n)]
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(extra)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


_ADJ = _reference_graph()


def kernel() -> int:
    """BFS over adjacency lists, set unions and a tuple-keyed dict, as in the package."""
    adj = _ADJ
    n = len(adj)
    total = 0
    table: dict[tuple, int] = {}
    for src in (0, 97, 211, 293, 389):
        dist = [-1] * n
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        seen: set[int] = set()
        for u in range(n):
            key = (src, dist[u], u % 7)
            table[key] = table.get(key, 0) + 1
            seen.update(adj[u])
        total += sum(dist) + len(seen) + len(table)
    return total


class Probe:
    """Kernel samples of one run, as (CPU time at the sample's middle, duration)."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.mids: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self):
        t0 = self.clock()
        kernel()
        t1 = self.clock()
        self.mids.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def maybe_sample(self):
        """Take a sample if ``INTERVAL_S`` of CPU time has passed since the last one."""
        if self.clock() - self._last >= INTERVAL_S:
            self.sample()

    def local(self, t0: float, t1: float) -> float:
        """Median kernel time over the samples within ``WINDOW_S`` of [t0, t1].

        At least ``MIN_SAMPLES`` samples are used: the window is widened to
        the nearest ones when a long instance leaves it sparse.
        """
        mids = self.mids
        lo = bisect.bisect_left(mids, t0 - WINDOW_S)
        hi = bisect.bisect_right(mids, t1 + WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, len(mids)):
            before = t0 - mids[lo - 1] if lo > 0 else float("inf")
            after = mids[hi] - t1 if hi < len(mids) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.durations[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns CPU time in [t0, t1] into time at the reference speed."""
        return REF_KERNEL_S / self.local(t0, t1)
