"""Host-memory model: modes, fragmentation, accounting."""

import pytest

from repro.memory import AllocMode, HostMemory, OutOfMemory

MB = 1 << 20


def test_alloc_rounds_to_pages():
    memory = HostMemory()
    allocation = memory.alloc(1)
    assert allocation.length == 4096
    assert memory.used == 4096


def test_free_returns_bytes():
    memory = HostMemory()
    allocation = memory.alloc(MB)
    memory.free(allocation.addr)
    assert memory.used == 0


def test_free_unknown_address_raises():
    memory = HostMemory()
    with pytest.raises(KeyError):
        memory.free(0xDEAD)


def test_capacity_exhaustion():
    memory = HostMemory(capacity_bytes=8 * MB)
    memory.alloc(6 * MB)
    with pytest.raises(OutOfMemory):
        memory.alloc(4 * MB)


def test_hugepage_pool_is_separate():
    memory = HostMemory(hugepage_pool_bytes=4 * MB)
    memory.alloc(4 * MB, AllocMode.HUGEPAGE)
    with pytest.raises(OutOfMemory):
        memory.alloc(4096, AllocMode.HUGEPAGE)
    # Regular allocations still work.
    memory.alloc(4 * MB)


def test_hugepage_free_returns_to_pool():
    memory = HostMemory(hugepage_pool_bytes=4 * MB)
    allocation = memory.alloc(4 * MB, AllocMode.HUGEPAGE)
    memory.free(allocation.addr)
    memory.alloc(4 * MB, AllocMode.HUGEPAGE)


def test_allocations_do_not_overlap():
    memory = HostMemory()
    spans = []
    for _ in range(50):
        allocation = memory.alloc(64 * 1024)
        spans.append((allocation.addr, allocation.addr + allocation.length))
    spans.sort()
    for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
        assert a_end <= b_start


def test_fragmentation_grows_with_churn():
    memory = HostMemory(capacity_bytes=64 * MB)
    assert memory.fragmentation == 0.0
    for _ in range(32):
        allocation = memory.alloc(4 * MB)
        memory.free(allocation.addr)
    assert memory.fragmentation > 0.5


def test_contiguous_fails_under_fragmentation():
    memory = HostMemory(capacity_bytes=64 * MB)
    for _ in range(32):
        allocation = memory.alloc(4 * MB)
        memory.free(allocation.addr)
    with pytest.raises(OutOfMemory):
        memory.alloc(32 * MB, AllocMode.CONTIGUOUS)
    assert memory.reclaim_events == 1


def test_contiguous_alloc_cost_rises_with_fragmentation():
    memory = HostMemory(capacity_bytes=64 * MB)
    fresh = memory.alloc_cost_ns(4 * MB, AllocMode.CONTIGUOUS)
    for _ in range(32):
        allocation = memory.alloc(4 * MB)
        memory.free(allocation.addr)
    assert memory.alloc_cost_ns(4 * MB, AllocMode.CONTIGUOUS) > 2 * fresh
    # Anonymous cost is unaffected.
    assert memory.alloc_cost_ns(4 * MB, AllocMode.ANONYMOUS) == \
        memory.alloc_cost_ns(4 * MB, AllocMode.ANONYMOUS)


def test_invalid_length_rejected():
    with pytest.raises(ValueError):
        HostMemory().alloc(0)


def test_bump_addresses_are_pinned():
    # Each allocation starts one page past the end of the previous one,
    # and a free never returns its range: these are the addresses every
    # run's MRs, rkeys and digests have always seen.
    memory = HostMemory()
    sizes = [(1, AllocMode.ANONYMOUS), (4096, AllocMode.ANONYMOUS),
             (5000, AllocMode.HUGEPAGE), (4 * MB, AllocMode.ANONYMOUS),
             (8192, AllocMode.CONTIGUOUS), (3, AllocMode.ANONYMOUS)]
    addrs = [memory.alloc(length, mode).addr for length, mode in sizes]
    memory.free(addrs[1])
    addrs.append(memory.alloc(100).addr)
    assert addrs == [0x1000_0000, 0x1000_2000, 0x1000_4000, 0x1000_7000,
                     0x1040_8000, 0x1040_b000, 0x1040_d000]
