"""No-pin (on-demand paging) mode: cheap registration, first-touch faults."""

from repro.memory.host import AllocMode
from repro.rnic.mr import AccessFlags
from repro.xrdma import XrdmaConfig
from repro.xrdma.memcache import MemCache
from tests.conftest import run_process
from tests.xrdma.conftest import make_context

KB = 1024
MB = 1024 * 1024


def _nopin_cache(cluster):
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    return host, MemCache(host.verbs, pd, mr_bytes=1 * MB, no_pin=True)


def _timed(cluster, generator):
    def proc():
        start = cluster.sim.now
        result = yield from generator
        return result, cluster.sim.now - start
    return run_process(cluster, proc())


def test_odp_registration_is_cheap(cluster):
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    params = host.verbs.params

    def register(odp):
        addr = host.verbs.memory.alloc(1 * MB, AllocMode.ANONYMOUS).addr
        reg = host.verbs.reg_mr_odp if odp else host.verbs.reg_mr
        start = cluster.sim.now
        yield reg(pd, addr, 1 * MB, AccessFlags.all_remote())
        return cluster.sim.now - start

    pinned_ns = run_process(cluster, register(odp=False))
    odp_ns = run_process(cluster, register(odp=True))
    # ODP skips pinning: flat cost, far below the 1 MB pinned register.
    assert odp_ns == params.odp_register_ns
    assert pinned_ns == params.mr_register_ns([1 * MB])
    assert odp_ns < pinned_ns


def test_first_touch_pays_fault_latency(cluster):
    host, cache = _nopin_cache(cluster)
    params = host.verbs.params

    _, elapsed = _timed(cluster, cache.alloc(8 * KB))
    # Cold path: ODP registration plus a 2-page fault at hand-out.
    assert elapsed == params.odp_register_ns + params.odp_page_fault_ns(2)
    assert cache.page_faults == 1 and cache.pages_faulted == 2

    _, elapsed = _timed(cluster, cache.alloc(8 * KB))
    # Fresh pages of the same (already registered) arena: fault only.
    assert elapsed == params.odp_page_fault_ns(2)
    assert cache.pages_faulted == 4


def test_resident_pages_do_not_fault_again(cluster):
    host, cache = _nopin_cache(cluster)

    buffer, _ = _timed(cluster, cache.alloc(8 * KB))
    cache.free(buffer)
    faulted = cache.pages_faulted
    again, elapsed = _timed(cluster, cache.alloc(8 * KB))
    # First-fit hands back the same (now resident) pages: no fault.
    assert again.addr == buffer.addr
    assert elapsed == 0
    assert cache.pages_faulted == faulted


def test_pinned_mode_never_faults(cluster):
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    cache = MemCache(host.verbs, pd, mr_bytes=1 * MB)

    _timed(cluster, cache.alloc(8 * KB))
    assert cache.page_faults == 0 and cache.pages_faulted == 0
    assert cache._arenas[0].resident_pages is None   # pinned: all resident


def test_config_wires_no_pin_and_mr_cache(cluster):
    ctx = make_context(cluster, 0, XrdmaConfig(
        memcache_no_pin=True, mr_reg_cache=True,
        mr_reg_cache_bytes=16 * MB))
    assert ctx.memcache.no_pin is True
    assert ctx.mr_reg_cache is not None
    assert ctx.memcache.mr_cache is ctx.mr_reg_cache
    assert ctx.mr_reg_cache.capacity_bytes == 16 * MB

    plain = make_context(cluster, 1)
    assert plain.memcache.no_pin is False
    assert plain.mr_reg_cache is None and plain.memcache.mr_cache is None
