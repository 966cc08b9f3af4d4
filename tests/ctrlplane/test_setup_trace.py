"""Setup spans: zero-residual channel-establishment decomposition."""

from repro.analysis import ClockSync, Tracer
from repro.analysis.tracing import SETUP_STAGES, analyze
from repro.sim import MILLIS, SECONDS
from repro.verbs.cm import ConnectError
from repro.xrdma import XrdmaConfig
from tests.conftest import run_process
from tests.xrdma.conftest import make_context


def _traced_client(cluster, **config_kwargs):
    config = XrdmaConfig(trace_sample_mask=1, **config_kwargs)
    client = make_context(cluster, 0, config)
    tracer = Tracer(client, ClockSync(cluster.rng))
    return client, tracer


def _setup_records(tracer):
    return [record for record in tracer.records.values()
            if record.view == "setup"]


def test_connect_emits_zero_residual_setup_trace(cluster):
    client, tracer = _traced_client(cluster)
    server = make_context(cluster, 1)
    accepted = server.listen(9600)

    def scenario():
        channel = yield from client.connect(1, 9600)
        yield accepted.get()
        return channel

    run_process(cluster, scenario(), limit=30 * SECONDS)
    (record,) = _setup_records(tracer)
    assert record.kind == "SETUP" and record.complete
    # Zero residual: the stage chain accounts for every nanosecond of
    # establishment, and every stage is present exactly once.
    assert record.residual_ns == 0
    assert sum(duration for _, duration in record.spans) \
        == record.total_ns > 0
    assert {stage for stage, _ in record.spans} == SETUP_STAGES
    assert len(tracer.records) == 1


def test_failed_connect_stays_incomplete_and_recycles(cluster):
    client, tracer = _traced_client(cluster)

    def scenario():
        try:
            yield from client.connect(1, 9999, timeout_ns=5 * MILLIS)
        except ConnectError:
            return True
        return False

    assert run_process(cluster, scenario(), limit=30 * SECONDS)
    (record,) = _setup_records(tracer)
    # A failed connect never finalizes — visible as an incomplete trace —
    # and its QP still went back to the cache.
    assert not record.complete
    assert analyze({}, tracer.export_records())["summary"]["incomplete"] == 1
    assert client.qpcache.recycled == 1


def test_warm_setup_is_faster_and_skips_registration(cluster):
    client, tracer = _traced_client(cluster)
    server = make_context(cluster, 1)
    accepted = server.listen(9601)

    def scenario():
        cold = yield from client.connect(1, 9601)
        yield accepted.get()
        yield from client.close_channel(cold)
        yield cluster.sim.timeout(MILLIS)
        warm = yield from client.connect(1, 9601)
        yield accepted.get()
        return warm

    run_process(cluster, scenario(), limit=30 * SECONDS)
    first, second = sorted(_setup_records(tracer),
                           key=lambda record: record.started_at_ns)
    assert first.complete and second.complete
    # Warm path: the recycled QP skips creation and the warm memory
    # cache skips MR registration entirely (Sec. VII-C, 3.9 ms → 2.5 ms).
    assert second.total_ns < first.total_ns
    cold_spans, warm_spans = dict(first.spans), dict(second.spans)
    assert warm_spans["qp_setup"] < cold_spans["qp_setup"]
    assert cold_spans["mr_reg"] > 0
    assert warm_spans["mr_reg"] == 0
