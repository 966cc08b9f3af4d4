"""Per-host memory: a simulated address space for RDMA-able buffers.

Addresses are plain integers; there is no byte content — correctness
properties (MR bounds, rkey checks, buffer reuse) are expressed over
address ranges.

Three allocation modes model the Sec. VII-F experience report:

* ``ANONYMOUS`` — ordinary pages; cheap, never fails under fragmentation.
* ``CONTIGUOUS`` — physically contiguous; cache-friendlier (a small per-op
  bonus the RNIC model honours) but fails once fragmentation is high and
  triggers expensive reclaim.
* ``HUGEPAGE`` — reserved pool; fast, fixed capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict

from repro.sim.timeunits import MICROS

_PAGE = 4096


class AllocMode(Enum):
    ANONYMOUS = auto()
    CONTIGUOUS = auto()
    HUGEPAGE = auto()


class OutOfMemory(RuntimeError):
    """Allocation failed (contiguous exhaustion or hugepage pool empty)."""


@dataclass
class Allocation:
    addr: int
    length: int
    mode: AllocMode


class HostMemory:
    """Bump allocator with free-byte accounting and a fragmentation model.

    ``fragmentation`` grows with allocator churn; contiguous allocations
    larger than the largest pseudo-contiguous run fail, and each failure
    charges a reclaim penalty (the paper's "memory recycling in kernel"
    slowdown).
    """

    def __init__(self, capacity_bytes: int = 64 << 30,
                 hugepage_pool_bytes: int = 2 << 30):
        self.capacity = capacity_bytes
        self.hugepage_pool = hugepage_pool_bytes
        self.hugepage_used = 0
        self.used = 0
        self.fragmentation = 0.0        #: 0 (pristine) .. 1 (fully fragmented)
        self.reclaim_events = 0
        self._next_addr = 0x1000_0000
        self._allocations: Dict[int, Allocation] = {}
        self._churn_bytes = 0

    # ------------------------------------------------------------ allocation
    def alloc(self, length: int,
              mode: AllocMode = AllocMode.ANONYMOUS) -> Allocation:
        if length <= 0:
            raise ValueError(f"allocation length must be positive: {length}")
        length = self._round_up(length)
        if self.used + length > self.capacity:
            raise OutOfMemory(
                f"host memory exhausted ({self.used}+{length} > {self.capacity})")
        if mode is AllocMode.HUGEPAGE:
            if self.hugepage_used + length > self.hugepage_pool:
                raise OutOfMemory("hugepage pool exhausted")
            self.hugepage_used += length
        elif mode is AllocMode.CONTIGUOUS:
            if length > self.largest_contiguous_run():
                self.reclaim_events += 1
                raise OutOfMemory(
                    f"no contiguous run of {length} bytes "
                    f"(fragmentation={self.fragmentation:.2f})")
        addr = self._place(length)
        allocation = Allocation(addr=addr, length=length, mode=mode)
        self._allocations[addr] = allocation
        self.used += length
        return allocation

    def free(self, addr: int) -> None:
        allocation = self._allocations.pop(addr, None)
        if allocation is None:
            raise KeyError(f"free of unknown address {addr:#x}")
        self.used -= allocation.length
        if allocation.mode is AllocMode.HUGEPAGE:
            self.hugepage_used -= allocation.length
        # Churn drives fragmentation up, slowly saturating.
        self._churn_bytes += allocation.length
        self.fragmentation = min(
            0.95, self._churn_bytes / (self.capacity * 2))

    # ----------------------------------------------------------------- costs
    def alloc_cost_ns(self, length: int, mode: AllocMode) -> int:
        """Latency of the allocation syscall path."""
        pages = max(1, length // _PAGE)
        if mode is AllocMode.HUGEPAGE:
            return 2 * MICROS + pages // 512
        if mode is AllocMode.CONTIGUOUS:
            # Compaction work rises with fragmentation.
            base = 5 * MICROS + pages * 40
            return int(base * (1.0 + 10.0 * self.fragmentation))
        return 1 * MICROS + pages * 25

    def largest_contiguous_run(self) -> int:
        """Largest physically contiguous allocation that would succeed.

        Contiguous runs shrink much faster than free space does — a
        lightly fragmented heap already has no large runs left, which is
        why the paper warns against physically contiguous allocations.
        """
        free = self.capacity - self.used
        return int(free * (1.0 - self.fragmentation) ** 10)

    # -------------------------------------------------------------- internals
    @staticmethod
    def _round_up(length: int) -> int:
        return (length + _PAGE - 1) // _PAGE * _PAGE

    def _place(self, length: int) -> int:
        # Bump past the range plus a one-page gap: the layout every
        # address in a run is pinned to.
        addr = self._next_addr
        self._next_addr = addr + length + _PAGE
        return addr
