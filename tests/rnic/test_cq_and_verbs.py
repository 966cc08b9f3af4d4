"""CQ semantics and verbs lifecycle paths not covered elsewhere."""

import gc

import pytest

from repro.rnic import AccessFlags, Opcode, QpState, WorkRequest, WrStatus
from repro.rnic.cq import CompletionQueue, CqOverflow
from repro.rnic.wqe import Completion
from repro.sim import SECONDS, SimulationError, Simulator
from repro.verbs.api import _Charged
from tests.conftest import establish, run_process


def _cqe(wr_id=1):
    return Completion(wr_id=wr_id, status=WrStatus.SUCCESS,
                      opcode=Opcode.SEND, qp_num=1)


def test_cq_poll_drains_fifo():
    sim = Simulator()
    cq = CompletionQueue(sim, depth=8)
    for wr_id in range(5):
        cq.push(_cqe(wr_id))
    assert [c.wr_id for c in cq.poll(3)] == [0, 1, 2]
    assert [c.wr_id for c in cq.poll(10)] == [3, 4]
    assert cq.poll() == []
    assert cq.total_completions == 5


def test_cq_overflow_is_fatal():
    sim = Simulator()
    cq = CompletionQueue(sim, depth=2)
    cq.push(_cqe())
    cq.push(_cqe())
    with pytest.raises(CqOverflow):
        cq.push(_cqe())


def test_cq_notify_fires_on_next_completion():
    sim = Simulator()
    cq = CompletionQueue(sim, depth=8)
    fired = []
    cq.request_notify(lambda: fired.append("a"))
    assert fired == []
    cq.push(_cqe())
    assert fired == ["a"]
    cq.push(_cqe())          # notify is one-shot
    assert fired == ["a"]


def test_cq_notify_with_pending_entries_fires_immediately():
    sim = Simulator()
    cq = CompletionQueue(sim, depth=8)
    cq.push(_cqe())
    fired = []
    cq.request_notify(lambda: fired.append("now"))
    assert fired == ["now"]


def test_cq_depth_validation():
    with pytest.raises(ValueError):
        CompletionQueue(Simulator(), depth=0)


def test_dereg_mr_removes_from_nic(cluster):
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    buf = host.memory.alloc(8192)

    def scenario():
        mr = yield host.verbs.reg_mr(pd, buf.addr, buf.length)
        assert host.nic.mr_table.check(mr.rkey, mr.addr, 4096,
                                       write=True) is not None
        yield host.verbs.dereg_mr(pd, mr)
        return mr

    mr = run_process(cluster, scenario(), limit=SECONDS)
    assert host.nic.mr_table.check(mr.rkey, mr.addr, 4096, write=True) is None
    assert mr.lkey not in pd.mrs


def test_mr_access_flags_enforced(cluster):
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    buf = host.memory.alloc(8192)

    def scenario():
        mr = yield host.verbs.reg_mr(pd, buf.addr, buf.length,
                                     AccessFlags.REMOTE_READ)
        return mr

    mr = run_process(cluster, scenario(), limit=SECONDS)
    assert host.nic.mr_table.check(mr.rkey, mr.addr, 64, write=False)
    assert host.nic.mr_table.check(mr.rkey, mr.addr, 64, write=True) is None


def test_destroy_qp_unregisters(cluster):
    conn_c, conn_s = establish(cluster, 0, 1)
    host = cluster.host(0)
    qpn = conn_c.qp.qpn
    assert qpn in host.nic.qps

    def scenario():
        yield host.verbs.destroy_qp(conn_c.qp)

    run_process(cluster, scenario(), limit=SECONDS)
    assert qpn not in host.nic.qps


def test_mr_registration_cost_scales_with_size(cluster):
    host = cluster.host(0)
    params = cluster.params
    assert params.mr_register_ns([4 << 20]) > params.mr_register_ns([4096])
    # 4 MB MR ≈ base + 1024 pages of translate/pin work.
    expected = params.mr_register_base_ns + 1024 * params.mr_register_per_page_ns
    assert params.mr_register_ns([4 << 20]) == expected


def _init_qp(cluster, host):
    """A fresh QP in INIT: one modify away from a failing RTR."""
    pd = host.verbs.alloc_pd()
    cq = host.verbs.create_cq()

    def scenario():
        qp = yield host.verbs.create_qp(pd, cq, cq)
        yield host.verbs.modify_qp(qp, QpState.INIT)
        return qp

    return run_process(cluster, scenario(), limit=cluster.sim.now + SECONDS)


def test_verbs_effect_failure_raises_at_the_callers_yield(cluster):
    """A verbs call is one event: it fires after its cost, and an effect
    that raises raises at the caller's yield, at that instant."""
    host = cluster.host(0)
    qp = _init_qp(cluster, host)
    sim = cluster.sim
    seen = {}

    def scenario():
        start, sequence = sim.now, sim._sequence
        charged = host.verbs.modify_qp(qp, QpState.RTR)     # no peer given
        with pytest.raises(ValueError, match="RTR requires"):
            yield charged
        seen["events"] = sim._sequence - sequence
        seen["elapsed"] = sim.now - start
        seen["event"] = charged

    run_process(cluster, scenario(), limit=sim.now + SECONDS)
    assert seen["events"] == 1
    assert seen["elapsed"] == cluster.params.qp_modify_ns
    assert not seen["event"].ok
    assert isinstance(seen["event"].value, ValueError)


def test_unobserved_verbs_effect_failure_is_a_simulation_error(cluster):
    """Nobody waits on the failed call: the fire loop raises, as it does
    for any unobserved failed event — unless the caller defused it."""
    host = cluster.host(0)
    qp = _init_qp(cluster, host)
    host.verbs.modify_qp(qp, QpState.RTR)
    with pytest.raises(SimulationError, match="unhandled failure") as info:
        cluster.sim.run()
    assert isinstance(info.value.__cause__, ValueError)

    defused = host.verbs.modify_qp(_init_qp(cluster, host), QpState.RTR)
    defused.defused = True
    cluster.sim.run()
    assert not defused.ok and isinstance(defused.value, ValueError)


def test_fired_verbs_calls_are_freed_without_the_cycle_collector(cluster):
    """A fired call closes no reference cycle, so the thousands of posts a
    run makes are freed by refcount instead of piling up for the GC."""
    host = cluster.host(0)
    pd = host.verbs.alloc_pd()
    cq = host.verbs.create_cq()

    def scenario():
        for _ in range(5):
            yield host.verbs.create_qp(pd, cq, cq)

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)      # keep whatever the GC finds
    try:
        run_process(cluster, scenario(), limit=cluster.sim.now + SECONDS)
        gc.collect()
        in_cycles = [obj for obj in gc.garbage if isinstance(obj, _Charged)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert in_cycles == []
