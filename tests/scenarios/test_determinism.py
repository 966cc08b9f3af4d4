"""Bit-reproducibility regression: one root seed, one schedule.

The xr-lint determinism family (XR1xx) bans the *sources* of divergence
— wall clocks, global RNG state, identity-ordered iteration, class- and
module-level counters.  This scenario checks the *outcome*: running the
same seeded workload twice in one process yields the identical event
schedule (:class:`~repro.sim.engine.TieAudit` digests match byte for
byte), the heap never resolves a tie against insertion order, and a
different seed genuinely changes the schedule.
"""

from repro.cluster import build_cluster
from repro.sim import MILLIS
from repro.tools.xr_perf import XrPerf
from tests.conftest import run_scenario_inline

#: enough load to pile events onto shared instants (ties) and to draw
#: from per-sender RNG streams (seed sensitivity via inter-message gaps)
SOURCES = [0, 1, 2]
SINK = 3
MESSAGES = 8
SIZE = 16 * 1024
GAP_NS = 40_000


def incast(seed):
    """Fresh cluster + fresh driver, audited from the first event;
    returns the drained cluster and the driver's result."""
    cluster = build_cluster(4, seed=seed)
    cluster.sim.enable_tie_audit()
    perf = XrPerf(cluster)
    result = perf.run_incast(SOURCES, SINK, size=SIZE,
                             messages_per_source=MESSAGES,
                             mean_gap_ns=GAP_NS)
    cluster.sim.run(until=cluster.sim.now + 50 * MILLIS)   # drain tails
    return cluster, result


def run_incast(seed):
    """:func:`incast`'s schedule audit and result."""
    cluster, result = incast(seed)
    return cluster.sim.tie_audit, result


def test_same_seed_same_schedule():
    audit_a, result_a = run_incast(seed=11)
    audit_b, result_b = run_incast(seed=11)

    # The workload actually ran and actually contended.
    assert result_a.messages == len(SOURCES) * MESSAGES
    assert audit_a.pops > 100
    assert audit_a.ties > 0, "no ties: the audit exercised nothing"

    # Identical schedule, byte for byte — and not by luck of a quiet heap.
    assert audit_a.digest() == audit_b.digest()
    assert (audit_a.pops, audit_a.ties, audit_a.tie_groups,
            audit_a.max_group) == (audit_b.pops, audit_b.ties,
                                   audit_b.tie_groups, audit_b.max_group)

    # Observable results agree too (catches divergence the schedule-shape
    # digest could miss, e.g. payload sizing from a stray RNG).
    assert result_a.duration_ns == result_b.duration_ns
    assert result_a.bytes_moved == result_b.bytes_moved
    assert result_a.crucial == result_b.crucial


def test_ties_resolve_in_insertion_order():
    audit, _ = run_incast(seed=11)
    assert audit.anomalies == 0, audit.summary()


def test_different_seed_different_schedule():
    audit_a, _ = run_incast(seed=11)
    audit_b, _ = run_incast(seed=12)
    assert audit_a.digest() != audit_b.digest()


def _xr_perf_incast():
    _, result = run_incast(seed=11)
    return (result.duration_ns, result.bytes_moved,
            tuple(sorted(result.crucial.items())))


def _cluster_incast():
    """Quick-scale cluster incast: two leaf uplinks, so ECMP hashes each
    flow id — and a flow id embeds the sender's QPN."""
    record = run_scenario_inline(
        "cluster-incast",
        {"n_hosts": 256, "rack": 0, "size": 16 * 1024, "messages": 2})
    return record["digest"], record["events"], record["metrics"]


def _traced_rpc():
    """Sampled trace lines: the mask tests the trace id, and the lines
    carry trace and channel ids."""
    record = run_scenario_inline(
        "traced-rpc", {"size": 2048, "sample_mask": 4})
    return record["traces"], record["trace"]


def _create_one_qp():
    """Create one QP through the verbs API, in a cluster of its own."""
    cluster = build_cluster(2, seed=0)
    verbs = cluster.host(0).verbs
    pd = verbs.alloc_pd()
    cq = verbs.create_cq()
    created = verbs.create_qp(pd, cq, cq)
    cluster.sim.run()
    assert created.value.qpn


#: (name, one run's fingerprint, what else the process does between runs)
REPEATED_RUNS = [
    ("xr-perf incast", _xr_perf_incast, None),
    ("cluster-incast after one more QP", _cluster_incast, _create_one_qp),
    ("traced-rpc, sample_mask=4", _traced_rpc, None),
]


def test_second_driver_in_one_process_matches_first():
    """Regression for process-global state: run N in one interpreter must
    equal run 1.

    ``XrPerf._sender_seq`` used to be class-level state: the Nth driver
    derived different RNG stream names ("...#4" instead of "...#1") than
    a fresh one, so back-to-back runs under one root seed produced
    different gap sequences.  Likewise QPNs, trace ids and channel ids
    came from process-global counters: one extra QP in the process moved
    cluster-incast's ECMP draws, and each traced-rpc run sampled
    different messages under the same mask.  Each id now comes from the
    object whose namespace it numbers.
    """
    for name, run, between in REPEATED_RUNS:
        results = []
        for _ in range(3):
            results.append(run())
            if between is not None:
                between()
        assert results[0] == results[1] == results[2], name
