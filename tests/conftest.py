"""Shared fixtures: thin wrappers over :mod:`repro.cluster`."""

import pytest

from repro.analysis import invariants
from repro.cluster import Cluster, Host, build_cluster  # noqa: F401 (re-export)
from repro.fleet.runner import execute_unit


@pytest.fixture(autouse=True)
def fatal_invariants():
    """Every test runs under a fatal-mode invariant registry.

    Any protocol invariant tripped mid-scenario raises
    :class:`~repro.analysis.invariants.InvariantError` (an AssertionError
    subclass) right at the offending call site instead of surfacing as a
    confusing downstream failure.
    """
    registry = invariants.install(mode="fatal")
    yield registry
    invariants.uninstall()


def run_process(cluster: Cluster, generator, limit=None):
    """Spawn a process and run the simulation until it returns."""
    proc = cluster.sim.spawn(generator)
    return cluster.sim.run_until_event(proc, limit=limit)


def establish(cluster: Cluster, client_id: int, server_id: int,
              service_port: int = 7000, sq_depth: int = None,
              rq_depth: int = None):
    """CM handshake between two hosts; returns (client_conn, server_conn)."""
    client, server = cluster.host(client_id), cluster.host(server_id)

    s_pd = server.verbs.alloc_pd()
    s_cq = server.verbs.create_cq()
    listener = server.cm.listen(service_port, s_pd, s_cq, s_cq)

    c_pd = client.verbs.alloc_pd()
    c_cq = client.verbs.create_cq()

    def connector():
        conn = yield from client.cm.connect(
            server_id, service_port, c_pd, c_cq, c_cq)
        server_conn = yield listener.accepted.get()
        return conn, server_conn

    conn, server_conn = run_process(cluster, connector())
    if sq_depth or rq_depth:  # re-shape depths for specific tests
        for c in (conn, server_conn):
            if sq_depth:
                c.qp.sq_depth = sq_depth
            if rq_depth:
                c.qp.rq_depth = rq_depth
    return conn, server_conn


@pytest.fixture
def cluster() -> Cluster:
    return build_cluster(4)


def run_scenario_inline(scenario, params, seed=0):
    """Execute a fleet scenario in-process and return its full record;
    raises if the run failed rather than returning a failure record —
    a test wants the traceback."""
    record = execute_unit({
        "run_id": f"inline/{scenario}/s{seed}",
        "experiment": "inline",
        "scenario": scenario,
        "params": params,
        "seed": seed,
        "timeout_s": None,
        "max_events": None,
    })
    if record["status"] != "ok":
        raise RuntimeError(
            f"inline scenario {scenario!r} failed: {record['reason']}")
    return record
