"""CQ semantics and verbs lifecycle paths not covered elsewhere."""

import pytest

from repro.rnic import AccessFlags, Opcode, WorkRequest, WrStatus
from repro.rnic.cq import CompletionQueue, CqOverflow
from repro.rnic.wqe import Completion
from repro.sim import SECONDS, Simulator
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
