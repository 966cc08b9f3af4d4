"""Memory cache: pooling, growth/shrink, accounting, isolation."""

import pytest

from repro.xrdma.memcache import MemCache, MemCacheError
from tests.conftest import build_cluster, run_process


@pytest.fixture
def setup(cluster):
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    cache = MemCache(host.verbs, pd, mr_bytes=1 << 20)
    return cluster, cache


def _alloc(cluster, cache, size):
    def proc():
        buffer = yield from cache.alloc(size)
        return buffer
    return run_process(cluster, proc())


def test_first_alloc_registers_one_mr(setup):
    cluster, cache = setup
    buffer = _alloc(cluster, cache, 4096)
    assert cache.mr_count == 1
    assert cache.occupied_bytes == 1 << 20
    assert cache.in_use_bytes == 4096
    assert buffer.rkey == buffer.mr.rkey


def test_allocations_share_one_arena(setup):
    cluster, cache = setup
    for _ in range(8):
        _alloc(cluster, cache, 4096)
    assert cache.mr_count == 1  # no extra registrations: the LITE lesson


def test_grows_when_arena_exhausted(setup):
    cluster, cache = setup
    _alloc(cluster, cache, 1 << 20)
    _alloc(cluster, cache, 4096)
    assert cache.mr_count == 2
    assert cache.grow_count == 2


def test_free_enables_reuse_without_growth(setup):
    cluster, cache = setup
    buffer = _alloc(cluster, cache, 1 << 20)
    cache.free(buffer)
    _alloc(cluster, cache, 1 << 20)
    assert cache.mr_count == 1


def test_free_list_coalesces(setup):
    cluster, cache = setup
    buffers = [_alloc(cluster, cache, 256 * 1024) for _ in range(4)]
    for buffer in buffers:
        cache.free(buffer)
    # After coalescing, one full-size allocation fits again.
    _alloc(cluster, cache, 1 << 20)
    assert cache.mr_count == 1


def test_double_free_rejected(setup):
    cluster, cache = setup
    buffer = _alloc(cluster, cache, 4096)
    cache.free(buffer)
    with pytest.raises(MemCacheError):
        cache.free(buffer)


def test_foreign_buffer_rejected_even_when_its_id_is_live_here(setup):
    # Buffer ids are numbered per cache, so a foreign buffer can carry an
    # id this cache has handed out too: it must still be refused, and the
    # local buffer under that id must stay live.
    cluster, cache = setup
    other = MemCache(cache.verbs, cache.pd, mr_bytes=1 << 20)
    mine = _alloc(cluster, cache, 4096)
    foreign = _alloc(cluster, other, 4096)
    assert foreign.buffer_id == mine.buffer_id
    with pytest.raises(MemCacheError):
        cache.free(foreign)
    cache.free(mine)
    other.free(foreign)


def test_oversized_alloc_rejected(setup):
    cluster, cache = setup
    with pytest.raises(MemCacheError):
        _alloc(cluster, cache, (1 << 20) + 1)


def test_shrink_reclaims_idle_arenas(setup):
    cluster, cache = setup
    a = _alloc(cluster, cache, 1 << 20)
    b = _alloc(cluster, cache, 1 << 20)
    cache.free(a)
    cache.free(b)
    reclaimed = cache.shrink()
    assert reclaimed == 1          # one kept warm
    assert cache.mr_count == 1
    assert cache.shrink_count == 1


def test_shrink_spares_arenas_in_use(setup):
    cluster, cache = setup
    keep = _alloc(cluster, cache, 1 << 20)
    spare = _alloc(cluster, cache, 4096)
    cache.free(spare)
    # Arena 2 idle, arena 1 busy: only arena 2 may go.
    assert cache.shrink() == 1
    assert cache.mr_count == 1
    assert cache.in_use_bytes == 1 << 20


def test_isolated_mode_uses_high_addresses(cluster):
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    cache = MemCache(host.verbs, pd, mr_bytes=1 << 20, isolated=True)
    buffer = _alloc(cluster, cache, 4096)
    assert buffer.addr >= 0x7F00_0000_0000


def test_isolated_mode_detects_out_of_bounds(cluster):
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    cache = MemCache(host.verbs, pd, mr_bytes=1 << 20, isolated=True)
    buffer = _alloc(cluster, cache, 4096)
    assert cache.check_access(buffer.addr, 4096)
    assert not cache.check_access(buffer.addr + (1 << 20), 4096)
    assert cache.out_of_bound_hits == 1


def test_shrink_never_reclaims_arena_with_live_buffers(setup):
    cluster, cache = setup
    hold = _alloc(cluster, cache, 1 << 20)     # arena 1, fully busy
    live = _alloc(cluster, cache, 4096)        # arena 2
    arena = cache._live[live.buffer_id][0]
    # A byte-accounting bug (or a release racing teardown) can make the
    # arena *look* idle while a buffer is still handed out.  The live map
    # is the ground truth and must veto reclamation.
    arena.used_bytes = 0
    arena.free = [(arena.mr.addr, arena.mr.length)]
    assert cache.shrink() == 0
    assert arena in cache._arenas
    cache._live.pop(live.buffer_id)            # discard the corrupted pair
    cache.free(hold)


def test_free_into_reclaimed_arena_rejected(setup):
    cluster, cache = setup
    hold = _alloc(cluster, cache, 1 << 20)     # arena 1, fully busy
    live = _alloc(cluster, cache, 4096)        # arena 2
    # Simulate the failure free() must defend against: the buffer's arena
    # is gone (deregistered) while the buffer is still out.  Releasing
    # into it would silently skew the Fig. 11c occupancy accounting.
    arena = cache._live[live.buffer_id][0]
    cache._arenas.remove(arena)
    with pytest.raises(MemCacheError):
        cache.free(live)


def test_prewarm_registers_up_front(setup):
    cluster, cache = setup

    def proc():
        yield from cache.prewarm(3)

    run_process(cluster, proc())
    assert cache.mr_count == 3
    assert cache.in_use_bytes == 0
