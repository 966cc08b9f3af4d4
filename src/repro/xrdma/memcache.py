"""The RDMA-enabled memory cache (Sec. IV-E).

MR registration costs tens of microseconds, and NIC translation-cache
pressure grows with MR count (the LITE lesson), so X-RDMA registers few,
large MRs — 4 MB each by default — and sub-allocates buffers from them.
Capacity grows by registering another MR and shrinks by reclaiming MRs that
have fallen completely idle.

``occupied_bytes`` (registered) vs ``in_use_bytes`` (handed out) are the two
curves of Fig. 11c.

Isolation mode (Sec. VI-C) places the arena at a distinct high address range
and tags buffers, so out-of-bound access bugs are detectable in tests.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.invariants import check as _invariant
from repro.rnic.mr import AccessFlags, MemoryRegion
from repro.sim.process import ProcessGenerator

if TYPE_CHECKING:  # pragma: no cover
    from repro.rnic.mr import ProtectionDomain
    from repro.verbs.api import VerbsContext

#: Isolated arenas start here — far above normal allocations, near the
#: stack, so stray pointers into the heap never alias cached buffers.
_ISOLATED_BASE = 0x7F00_0000_0000


@dataclass
class RdmaBuffer:
    """A sub-allocation of a cached MR, ready for RDMA."""

    addr: int
    size: int
    mr: MemoryRegion
    buffer_id: int          #: unique within the MemCache that made it

    @property
    def rkey(self) -> int:
        return self.mr.rkey


class _Arena:
    """One registered MR plus an address-ordered first-fit free list.

    ``free`` holds the free blocks as ``(addr, size)`` in address order.
    ``alloc`` takes the lowest-address block that fits — the placement the
    Fig. 11c occupancy behaviour and the golden schedule digests depend on
    — and ``release`` finds its slot by bisection and merges with the free
    neighbour on either side, so adjacent free blocks never coexist.
    """

    def __init__(self, mr: MemoryRegion) -> None:
        self.mr = mr
        self.used_bytes = 0
        #: no-pin mode only: page indices already faulted resident.
        #: None (the default, pinned registration) means "all resident".
        self.resident_pages: Optional[set] = None
        self.free: List[Tuple[int, int]] = [(mr.addr, mr.length)]

    def alloc(self, size: int) -> Optional[int]:
        free = self.free
        for index, (addr, length) in enumerate(free):
            if length >= size:
                if length == size:
                    del free[index]
                else:
                    free[index] = (addr + size, length - size)
                self.used_bytes += size
                return addr
        return None

    def release(self, addr: int, size: int) -> None:
        self.used_bytes -= size
        if self.used_bytes < 0:
            _invariant(False, "memcache.used_underflow",
                       lambda: f"used_bytes={self.used_bytes} after "
                               f"release({addr:#x}, {size})")
            self.used_bytes = 0
        if not (self.mr.addr <= addr
                and addr + size <= self.mr.addr + self.mr.length):
            _invariant(False, "memcache.release_out_of_bounds",
                       lambda: f"release({addr:#x}, {size}) outside arena "
                               f"[{self.mr.addr:#x}, "
                               f"{self.mr.addr + self.mr.length:#x})")
        free = self.free
        index = bisect_left(free, (addr,))
        if index < len(free) and free[index][0] == addr + size:
            size += free.pop(index)[1]
        if index and free[index - 1][0] + free[index - 1][1] == addr:
            left, left_size = free[index - 1]
            free[index - 1] = (left, left_size + size)
        else:
            free.insert(index, (addr, size))

    @property
    def idle(self) -> bool:
        return self.used_bytes == 0


class MemCacheError(RuntimeError):
    """Allocation larger than an arena, or double free."""


class MemCache:
    """Per-context pool of RDMA-enabled memory."""

    def __init__(self, verbs: "VerbsContext", pd: "ProtectionDomain",
                 mr_bytes: int = 4 * 1024 * 1024,
                 isolated: bool = False,
                 no_pin: bool = False) -> None:
        self.verbs = verbs
        self.pd = pd
        self.mr_bytes = mr_bytes
        self.isolated = isolated
        #: NP-RDMA-style on-demand paging: registration skips pinning,
        #: first touch of each page pays fault latency at buffer hand-out.
        self.no_pin = no_pin
        self._arenas: List[_Arena] = []
        self._live: Dict[int, Tuple[_Arena, RdmaBuffer]] = {}
        self._buffer_ids = itertools.count(1)
        self._isolated_cursor = _ISOLATED_BASE
        self.grow_count = 0
        self.shrink_count = 0
        self.page_faults = 0         #: fault events (no-pin mode)
        self.pages_faulted = 0       #: pages made resident (no-pin mode)
        self.out_of_bound_hits = 0

    # ------------------------------------------------------------ accounting
    @property
    def occupied_bytes(self) -> int:
        """Registered (reserved) capacity — the "Occupy" curve of Fig. 11c."""
        return len(self._arenas) * self.mr_bytes

    @property
    def in_use_bytes(self) -> int:
        """Handed-out bytes — the "In-use" curve of Fig. 11c."""
        return sum(arena.used_bytes for arena in self._arenas)

    @property
    def mr_count(self) -> int:
        return len(self._arenas)

    # ------------------------------------------------------------ allocation
    def alloc(self, size: int) -> ProcessGenerator:
        """Generator: allocate ``size`` bytes, registering a new MR if needed.

        ``yield from`` it inside a sim process; returns an
        :class:`RdmaBuffer`.
        """
        if size > self.mr_bytes:
            raise MemCacheError(
                f"allocation {size} exceeds the arena size {self.mr_bytes}; "
                "register dedicated memory instead")
        for arena in self._arenas:
            addr = arena.alloc(size)
            if addr is not None:
                fault_ns = self._fault_in(arena, addr, size)
                if fault_ns:
                    yield self.verbs.sim.timeout(fault_ns)
                return self._make_buffer(arena, addr, size)
        arena = yield from self._grow()
        addr = arena.alloc(size)
        if addr is None:  # pragma: no cover - fresh arena must fit
            raise MemCacheError("fresh arena failed to satisfy allocation")
        fault_ns = self._fault_in(arena, addr, size)
        if fault_ns:
            yield self.verbs.sim.timeout(fault_ns)
        return self._make_buffer(arena, addr, size)

    def free(self, buffer: RdmaBuffer) -> None:
        entry = self._live.get(buffer.buffer_id)
        if entry is None or entry[1] is not buffer:
            raise MemCacheError(
                f"double free or foreign buffer id={buffer.buffer_id}")
        del self._live[buffer.buffer_id]
        arena = entry[0]
        if arena not in self._arenas:
            # Releasing into a reclaimed MR would silently skew the
            # Fig. 11c occupancy curves (the arena is no longer summed).
            raise MemCacheError(
                f"buffer id={buffer.buffer_id} belongs to an arena already "
                "reclaimed by shrink(); release-after-reclaim corrupts "
                "the occupancy accounting")
        arena.release(buffer.addr, buffer.size)

    def check_access(self, addr: int, size: int) -> bool:
        """Isolation-mode bounds check; counts violations (Sec. VI-C)."""
        for arena in self._arenas:
            if arena.mr.contains(addr, size):
                return True
        self.out_of_bound_hits += 1
        return False

    # ------------------------------------------------------------- lifecycle
    def shrink(self) -> int:
        """Deregister fully idle arenas (keeping one warm); returns count.

        An arena still backing live buffers is never reclaimed, even if
        its byte accounting claims idleness — the handed-out buffers are
        the ground truth.
        """
        live_arenas = {id(arena) for arena, _ in self._live.values()}
        reclaimable = [a for a in self._arenas
                       if a.idle and id(a) not in live_arenas]
        keep_one = 1 if len(reclaimable) == len(self._arenas) else 0
        victims = reclaimable[keep_one:] if keep_one else reclaimable
        for arena in victims:
            self._arenas.remove(arena)
            self.verbs.nic.mr_table.deregister(self.pd, arena.mr)
            self.shrink_count += 1
        return len(victims)

    def prewarm(self, arenas: int) -> ProcessGenerator:
        """Generator: register ``arenas`` MRs up front."""
        for _ in range(arenas):
            yield from self._grow()

    # -------------------------------------------------------------- internal
    def _grow(self) -> ProcessGenerator:
        if self.isolated:
            addr = self._isolated_cursor
            self._isolated_cursor += self.mr_bytes * 2  # guard gap between MRs
        else:
            addr = self.verbs.memory.alloc(self.mr_bytes).addr
        if self.no_pin:
            mr = yield self.verbs.reg_mr_odp(self.pd, addr, self.mr_bytes,
                                             AccessFlags.all_remote())
        else:
            mr = yield self.verbs.reg_mr(self.pd, addr, self.mr_bytes,
                                         AccessFlags.all_remote())
        arena = _Arena(mr)
        if self.no_pin:
            arena.resident_pages = set()
        self._arenas.append(arena)
        self.grow_count += 1
        return arena

    def _fault_in(self, arena: _Arena, addr: int, size: int) -> int:
        """No-pin mode: make ``[addr, addr+size)`` resident; returns the
        fault latency to charge (0 when already resident or pinned)."""
        if arena.resident_pages is None:
            return 0
        first = (addr - arena.mr.addr) // 4096
        last = (addr + size - 1 - arena.mr.addr) // 4096
        new_pages = [page for page in range(first, last + 1)
                     if page not in arena.resident_pages]
        if not new_pages:
            return 0
        arena.resident_pages.update(new_pages)
        self.page_faults += 1
        self.pages_faulted += len(new_pages)
        return self.verbs.params.odp_page_fault_ns(len(new_pages))

    def _make_buffer(self, arena: _Arena, addr: int, size: int) -> RdmaBuffer:
        buffer = RdmaBuffer(addr=addr, size=size, mr=arena.mr,
                            buffer_id=next(self._buffer_ids))
        self._live[buffer.buffer_id] = (arena, buffer)
        return buffer
