"""MR registration cache: warm reuse, eviction, batched registration."""

import pytest

from repro.ctrlplane import MrRegCache
from repro.memory.host import AllocMode
from repro.xrdma.memcache import MemCache
from tests.conftest import run_process

KB = 1024
MB = 1024 * 1024


@pytest.fixture
def setup(cluster):
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    cache = MrRegCache(host.verbs, pd, capacity_bytes=8 * KB)
    return cluster, host, cache


def _addr_source(host, length):
    def source():
        return host.verbs.memory.alloc(length, AllocMode.ANONYMOUS).addr
    return source


def _acquire(cluster, host, cache, length):
    def proc():
        start = cluster.sim.now
        mr = yield from cache.acquire(length, _addr_source(host, length))
        return mr, cluster.sim.now - start
    return run_process(cluster, proc())


def test_acquire_miss_registers_at_full_cost(setup):
    cluster, host, cache = setup
    mr, elapsed = _acquire(cluster, host, cache, 4 * KB)
    assert cache.misses == 1 and cache.hits == 0
    assert host.verbs.mrs_registered == 1
    assert elapsed == host.verbs.params.mr_register_ns([4 * KB]) > 0
    assert host.nic.mr_table.check(mr.rkey, mr.addr, 4 * KB, write=True) is mr


def test_release_keeps_mr_warm_and_hit_is_free(setup):
    cluster, host, cache = setup
    mr, _ = _acquire(cluster, host, cache, 4 * KB)
    cache.release(mr)
    # Warm: still registered at the NIC, pages still pinned.
    assert len(cache) == 1 and cache.pinned_bytes == 4 * KB
    assert host.nic.mr_table.check(mr.rkey, mr.addr, 4 * KB, write=True) is mr

    again, elapsed = _acquire(cluster, host, cache, 4 * KB)
    assert again is mr                       # same registration, reused
    assert elapsed == 0                      # zero driver cost on a hit
    assert cache.hits == 1
    assert host.verbs.mrs_registered == 1    # no new registration


def test_lookup_matches_exact_length_only(setup):
    cluster, host, cache = setup
    mr, _ = _acquire(cluster, host, cache, 4 * KB)
    cache.release(mr)
    assert cache.lookup(2 * KB) is None      # wrong size: cold miss
    assert cache.lookup(4 * KB) is mr


def test_eviction_past_capacity_deregisters_oldest(setup):
    cluster, host, cache = setup             # capacity_bytes = 8 KB
    mrs = [_acquire(cluster, host, cache, 4 * KB)[0] for _ in range(3)]
    for mr in mrs:
        cache.release(mr)
    # Third release overflowed the pinned budget: FIFO evicts the oldest.
    assert cache.evictions == 1
    assert cache.pinned_bytes == 8 * KB and len(cache) == 2
    evicted = mrs[0]
    assert host.nic.mr_table.check(evicted.rkey, evicted.addr,
                                   4 * KB, write=True) is None
    assert evicted.lkey not in cache.pd.mrs  # deregistered from the PD


def test_flush_deregisters_everything(setup):
    cluster, host, cache = setup
    mrs = [_acquire(cluster, host, cache, 4 * KB)[0] for _ in range(2)]
    for mr in mrs:
        cache.release(mr)
    assert cache.flush() == 2
    assert len(cache) == 0 and cache.pinned_bytes == 0
    for mr in mrs:
        assert host.nic.mr_table.check(mr.rkey, mr.addr,
                                       4 * KB, write=True) is None


def test_prewarm_batch_pays_base_cost_once(cluster):
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    cache = MrRegCache(host.verbs, pd, capacity_bytes=64 * MB)
    count, length = 4, 64 * KB

    def warm():
        start = cluster.sim.now
        yield from cache.prewarm(count, length)
        return cluster.sim.now - start

    elapsed = run_process(cluster, warm())
    assert len(cache) == count
    assert host.verbs.mrs_registered == count
    params = host.verbs.params
    assert elapsed == params.mr_register_ns([length] * count)
    # The batch amortizes the driver base cost: strictly cheaper than
    # the same registrations issued one at a time.
    assert elapsed < count * params.mr_register_ns([length])


# ------------------------------------------------- MemCache integration

def test_memcache_shrink_releases_warm_and_regrow_is_free(cluster):
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    mrc = MrRegCache(host.verbs, pd, capacity_bytes=64 * MB)
    cache = MemCache(host.verbs, pd, mr_bytes=1 * MB, mr_cache=mrc)

    def churn():
        big = yield from cache.alloc(1 * MB)     # arena 1
        small = yield from cache.alloc(4 * KB)   # arena 2 (grow)
        cache.free(big)
        cache.free(small)
        assert cache.shrink() == 1               # one arena kept warm-local
        # The reclaimed arena's MR went to the cache warm, not the driver.
        assert len(mrc) == 1 and mrc.releases == 1
        registered_before = host.verbs.mrs_registered
        start = cluster.sim.now
        one = yield from cache.alloc(1 * MB)     # refills arena 1
        two = yield from cache.alloc(1 * MB)     # regrow: warm cache hit
        assert cluster.sim.now == start          # zero driver cost
        assert host.verbs.mrs_registered == registered_before
        cache.free(one)
        cache.free(two)

    run_process(cluster, churn())
    assert cache.cached_grows == 1
    assert mrc.hits == 1
    assert host.verbs.mrs_registered == 2        # only the two cold grows


def test_memcache_without_cache_deregisters_on_shrink(cluster):
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    cache = MemCache(host.verbs, pd, mr_bytes=1 * MB)

    def churn():
        big = yield from cache.alloc(1 * MB)
        small = yield from cache.alloc(4 * KB)
        mr = cache._arenas[1].mr
        cache.free(big)
        cache.free(small)
        assert cache.shrink() == 1
        return mr

    mr = run_process(cluster, churn())
    # Baseline behaviour preserved: no cache means a real deregistration.
    assert host.nic.mr_table.check(mr.rkey, mr.addr, 4 * KB,
                                   write=True) is None
    assert cache.cached_grows == 0
