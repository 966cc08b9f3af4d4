"""MR registration cache: lazy deregistration + batched registration.

Registration pins pages and programs the NIC translation table — tens of
microseconds that elastic workloads pay over and over as buffers churn.
The cache sits in front of ``verbs.reg_mr``:

* **release** keeps the registration *warm* instead of deregistering —
  the pages stay pinned and the MR stays installed in the NIC;
* **lookup** hands a warm same-length MR back with zero driver cost;
* **eviction** is FIFO by total pinned bytes (``capacity_bytes``), so
  the pinned-memory footprint — the cost no-pin mode exists to avoid —
  stays bounded and observable;
* **prewarm** registers many regions through ``verbs.reg_mr_batch``,
  paying the per-call driver base cost once for the whole batch.

Deregistration on eviction is synchronous and uncharged, mirroring
``MemCache.shrink`` (reclaim happens off the latency path).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.memory.host import AllocMode
from repro.rnic.mr import AccessFlags, MemoryRegion
from repro.sim.process import ProcessGenerator

if TYPE_CHECKING:  # pragma: no cover
    from repro.rnic.mr import ProtectionDomain
    from repro.verbs.api import VerbsContext


class MrRegCache:
    """FIFO pool of warm (still-registered) memory regions."""

    def __init__(self, verbs: "VerbsContext", pd: "ProtectionDomain",
                 capacity_bytes: int = 64 * 1024 * 1024) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"negative capacity: {capacity_bytes}")
        self.verbs = verbs
        self.pd = pd
        self.capacity_bytes = capacity_bytes
        self._pool: Deque[MemoryRegion] = deque()   #: FIFO, oldest left
        self.pinned_bytes = 0    #: bytes held warm (pinned but idle)
        self.hits = 0
        self.misses = 0
        self.releases = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._pool)

    # ------------------------------------------------------------ fast path
    def lookup(self, length: int) -> Optional[MemoryRegion]:
        """A warm MR of exactly ``length`` bytes, or None (cold miss).

        Synchronous: a hit skips the driver entirely, which is the whole
        point of the cache.  First-fit over the FIFO keeps eviction order
        deterministic.
        """
        for index, mr in enumerate(self._pool):
            if mr.length == length:
                del self._pool[index]
                self.pinned_bytes -= length
                self.hits += 1
                return mr
        self.misses += 1
        return None

    def acquire(self, length: int, addr_source: Callable[[], int]
                ) -> ProcessGenerator:
        """Generator: a warm MR if cached, else register at full cost.

        ``addr_source`` is only called on a miss — a hit reuses the warm
        MR's own (still-pinned) backing memory.
        """
        mr = self.lookup(length)
        if mr is None:
            mr = yield self.verbs.reg_mr(self.pd, addr_source(), length,
                                         AccessFlags.all_remote())
        return mr

    def release(self, mr: MemoryRegion) -> None:
        """Keep ``mr`` registered and warm; evict oldest past capacity."""
        self._pool.append(mr)
        self.pinned_bytes += mr.length
        self.releases += 1
        while self.pinned_bytes > self.capacity_bytes:
            self._evict(self._pool.popleft())

    # ------------------------------------------------------------- lifecycle
    def prewarm(self, count: int, length: int) -> ProcessGenerator:
        """Generator: batch-register ``count`` warm regions of ``length``.

        One ``reg_mr_batch`` call — the driver base cost is paid once,
        per-page pinning still sums (Sec. IV-E's lazy/batched knob).
        """
        if count <= 0:
            return
        memory = self.verbs.memory
        regions = [(memory.alloc(length, AllocMode.ANONYMOUS).addr, length)
                   for _ in range(count)]
        mrs = yield self.verbs.reg_mr_batch(self.pd, regions,
                                            AccessFlags.all_remote())
        for mr in mrs:
            self.release(mr)

    def flush(self) -> int:
        """Deregister everything warm; returns the count (teardown path)."""
        count = len(self._pool)
        while self._pool:
            self._evict(self._pool.popleft())
        return count

    # -------------------------------------------------------------- internal
    def _evict(self, mr: MemoryRegion) -> None:
        self.pinned_bytes -= mr.length
        self.verbs.nic.mr_table.deregister(self.pd, mr)
        self.evictions += 1
