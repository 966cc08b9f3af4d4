"""The events-by-owner price list: every event a run fires has a price.

:class:`~repro.sim.engine.TieAudit` counts a run's pops by owner.  Most of
them are an exact function of counters the model already keeps, so the
event count is a sum of model work, not an accident of the schedule:

==============================  =========================================
owner (pops)                    price
==============================  =========================================
``EgressPort._on_serialized``   Σ ``tx_segments`` over every egress port
``EgressPort._on_delivered``    Σ ``tx_segments`` (one delivery each)
``Rnic._on_occupied``           Σ ``Rnic.tx_fragments`` (one engine
                                occupancy per fragment emitted)
``Rnic._tx_run``                one start per NIC port + Σ
                                ``Rnic.tx_wakes``
``_Charged._apply``             Σ ``VerbsContext.calls`` (a verbs call
                                is one event)
``CompletionQueue.push``        Σ ``total_completions`` over every CQ
``Rnic._enqueue_job``           Σ ``Rnic.dcqcn_deferrals``
==============================  =========================================

``NetStats.segments_sent`` is not the fragment price: it also counts
ACKs, rdma_cm and TCP segments, none of which occupies the engine.

What is left is *process resumes*: generator bodies woken by an event,
plus their plumbing (an event nobody waits on, a condition's child, a
``run_until_event`` stop hook, the poll loop's deadline timer, a
driver's ``call_at``).  They have no closed formula, so they form one
named residual row, bounded at 5% above the count measured when the
table was written — one stray wake per completion exceeds it in every
run here.  An owner the table does not name fails the test: a change
that adds a kind of event adds its row.

The runs are the four ``bench/`` workloads' instrumented quick passes at
seed 1 (the passes ``golden_ledger.json`` pins) and the four
``golden_digests.json`` scenarios.  The prices are invariants of the
model, so they hold whatever the schedule; only the residual bound is
tied to these runs.  Seed-1 quick counts (rpc-pingpong / incast-bulk /
serving-mix / storage-pangu): segments 4 810 / 12 390 / 16 174 /
21 976, CQEs 2 402 / 593 / 2 568 / 1 864.

A change that moves events on purpose moves this table with them: it
states its new prices here, and this test says whether it did what it
claimed.
"""

from functools import partial

import pytest

from bench.workloads import WORKLOADS, Pass
from tests.scenarios.test_digest_equivalence import SCENARIOS

SEED = 1

#: owner -> the unit of model work that prices it, one pop per unit
PRICES = {
    "EgressPort._on_serialized": "segments",
    "EgressPort._on_delivered": "segments",
    "Rnic._on_occupied": "fragments",
    "Rnic._tx_run": "engine runs",
    "_Charged._apply": "verbs calls",
    "CompletionQueue.push": "CQEs",
    "Rnic._enqueue_job": "DCQCN deferrals",
}

#: the residual row: process resumes and their plumbing
RESUMES = frozenset({
    # events and hooks of the engine itself
    "(Event, no callback)",
    "(Process, no callback)",
    "_Condition._on_child",
    "Simulator.run_until_event.<locals>.<lambda>",
    # the RNIC, rdma_cm and X-RDMA context processes
    "Rnic._watchdog_loop",
    "CmAgent._handle_request",
    "XrdmaContext._run",
    "XrdmaContext._on_deadline",
    "XrdmaContext._accept_loop",
    "XrdmaContext.connect",
    "XrdmaContext.close_channel",
    # applications, serving, monitoring
    "BlockServer._handle_frontend",
    "BlockServer._serve",
    "BlockServer.connect_mesh",
    "ChunkServer._serve",
    "_Frontend.connect",
    "Tenant._await_response",
    "Tenant._driver",
    "Tenant._driver.<locals>.connect_one",
    "ServingHarness._acceptor",
    "ServingHarness.run.<locals>.conduct",
    "Monitor.start_fabric_sampler.<locals>.loop",
    "XrPerf._incast_sender",
    "XrPerf._install_echo.<locals>.loop",
    # the drivers of the runs themselves
    "_echo",
    "rpc_pingpong.<locals>.requests",
    "incast_bulk.<locals>.source",
    "incast_bulk.<locals>.consume",
    "serving_mix.<locals>.offered_load_ends",
    "storage_pangu.<locals>.closed_loop",
    "storage_pangu.<locals>.join",
    "run_timer_churn.<locals>.churner",
    "run_memcache_churn.<locals>.churn",
})

#: residual pops measured when the table was written; the bound is 5% more
RESUMES_MEASURED = {
    "rpc-pingpong": 8_437,
    "incast-bulk": 1_600,
    "serving-mix": 9_808,
    "storage-pangu": 6_202,
    "incast-seed11": 404,
    "incast-seed12": 413,
    "timer-churn": 1_050,
    "memcache-churn": 2,
}


def _ledger_pass(workload):
    """The instrumented quick pass ``golden_ledger.json`` pins."""
    p = Pass(workload, SEED, "quick", instrument=True)
    WORKLOADS[workload](p)
    return p.cluster.sim.tie_audit, p.cluster


#: run name -> (TieAudit, cluster or None)
RUNS = {**{name: partial(_ledger_pass, name) for name in WORKLOADS},
        **SCENARIOS}


def _units(cluster):
    """The model's counters, summed over the cluster, by price unit."""
    units = dict.fromkeys(PRICES.values(), 0)
    if cluster is None:                 # the pure-engine scenario
        return units
    topology = cluster.topology
    nics = [host.nic for host in cluster.hosts]
    verbs = [host.verbs for host in cluster.hosts]
    ports = [port for switch in topology.tors + topology.leaves
             + topology.spines for port in switch.ports]
    ports += [port for nic in nics for port in nic.uplinks]
    units["segments"] = sum(port.tx_segments for port in ports)
    units["fragments"] = sum(nic.tx_fragments for nic in nics)
    # An RNIC starts one transmit engine per port, and always one.
    units["engine runs"] = sum(max(1, len(nic.uplinks)) + nic.tx_wakes
                               for nic in nics)
    units["verbs calls"] = sum(context.calls for context in verbs)
    units["CQEs"] = sum(cq.total_completions
                        for context in verbs for cq in context.cqs)
    units["DCQCN deferrals"] = sum(nic.dcqcn_deferrals for nic in nics)
    return units


def test_every_run_has_a_residual_bound():
    assert set(RESUMES_MEASURED) == set(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_event_has_a_price(name):
    audit, cluster = RUNS[name]()
    owners = audit.owners
    unnamed = sorted(set(owners) - set(PRICES) - RESUMES)
    assert not unnamed, (
        f"{name}: owners the price list does not name: {unnamed}")

    units = _units(cluster)
    for owner, unit in PRICES.items():
        assert owners.get(owner, 0) == units[unit], (
            f"{name}: {owner} fired {owners.get(owner, 0)} times, "
            f"but the run did {units[unit]} {unit}")

    resumes = sum(owners[owner] for owner in RESUMES if owner in owners)
    measured = RESUMES_MEASURED[name]
    assert resumes <= measured + measured // 20, (
        f"{name}: {resumes} process resumes, bound "
        f"{measured + measured // 20} (measured {measured})")
