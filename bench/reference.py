"""A fixed reference kernel that tells how fast this machine is right now.

Host time on a shared sandbox drifts by 10–20% for minutes at a time
(neighbours contending for the core), which no statistic over the passes
of one run can remove.  The kernel below is interleaved with the timed
passes; host-time metrics are scaled by ``REFERENCE_S`` over its
lower-quartile time, i.e. reported as *seconds at reference speed*.

The kernel uses nothing from ``src/repro`` — a faster engine must not
make the yardstick faster — but does what a DES does: heap pushes and
pops of tuples, generator resumes, dict stores, small-object allocation.
"""

from __future__ import annotations

import gc
import time
from heapq import heappop, heappush

#: about what :func:`reference_kernel` takes on the development container
#: (0.045–0.052 s, drifting).  A constant, not a measurement: it only
#: fixes the unit.
REFERENCE_S = 0.050


def reference_kernel(steps: int = 60_000) -> int:
    heap: list = []

    def process():
        total = 0
        while True:
            total += yield

    processes = [process() for _ in range(64)]
    for proc in processes:
        next(proc)
    store = {}
    for step in range(steps):
        heappush(heap, ((step * 7919) % 1000, step, processes[step & 63]))
        store[step & 1023] = (step, heap[0])
        if step & 1:
            when, _, proc = heappop(heap)
            proc.send(when)
    return len(heap)


def time_reference() -> float:
    """Host seconds one run of the kernel takes now.

    Collects garbage first: the kernel allocates, and with the previous
    pass's debris still on the heap its own collections cost 40% more.
    """
    gc.collect()
    started = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - started
