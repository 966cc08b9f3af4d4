"""Per-strategy conformance suite for the pluggable messaging protocol.

Every rendezvous variant must satisfy the same contract the paper's
receiver-Read design does: strictly in-order delivery across mixed
eager/rendezvous traffic, idempotence under middleware retransmits (a
40% duplicate filter), and exact resource accounting at teardown —
whether the teardown is orderly or a mid-transfer failure.  The Mock's
TCP detour is held to the same three as one more parameter, ``"tcp"``:
a transport under the channel differs in cost, never in delivered
semantics.  The Write-with-notify variant additionally proves XR-Trace
span chains stay zero-residual (its CTS/FIN control headers must not
double-mark spans).
"""

import pytest

from repro.analysis import ClockSync, FaultRule, Filter, Mock, Tracer
from repro.sim import MILLIS, SECONDS
from repro.xrdma import XrdmaConfig
from repro.xrdma.config import ConfigError
from repro.xrdma.protocol import (EagerStrategy, ProtocolPolicy,
                                  ReadRendezvous, WriteRendezvous,
                                  rendezvous_variant_names)
from tests.conftest import run_process
from tests.scenarios.conftest import assert_quiescent, close_channels, settle
from tests.xrdma.conftest import connect_pair

VARIANTS = rendezvous_variant_names()
#: the conformance contract is the channel's, whatever carries its headers
TRANSPORTS = VARIANTS + ["tcp"]
LARGE = 256 * 1024


def _variant_pair(cluster, variant, port, **overrides):
    """A connected pair under ``variant``; ``"tcp"`` is the default pair
    with the Mock's TCP detour engaged on both ends."""
    if variant != "tcp":
        overrides["rendezvous_variant"] = variant
    client, server, client_ch, server_ch = connect_pair(
        cluster, port=port, client_config=XrdmaConfig(**overrides),
        server_config=XrdmaConfig(**overrides))
    if variant == "tcp":
        run_process(cluster, Mock(cluster).engage(
            client, client_ch, server, server_ch), limit=2 * SECONDS)
    return client, server, client_ch, server_ch


def _drain(cluster, server, total, limit=60 * SECONDS):
    def drainer():
        got = []
        while len(got) < total:
            got.extend(server.polling())
            yield cluster.sim.timeout(100_000)
        return got

    return run_process(cluster, drainer(), limit=limit)


# --------------------------------------------------------------- policy unit
def test_policy_selects_eager_below_threshold_and_variant_above():
    policy = ProtocolPolicy(XrdmaConfig(small_msg_size=1024))
    assert isinstance(policy.eager, EagerStrategy)
    assert isinstance(policy.rendezvous, ReadRendezvous)
    assert not policy.is_large(1024)      # boundary stays eager (≤)
    assert policy.is_large(1025)
    write_policy = ProtocolPolicy(XrdmaConfig(rendezvous_variant="write"))
    assert isinstance(write_policy.rendezvous, WriteRendezvous)


def test_registered_variants_and_config_validation():
    assert VARIANTS == ["read", "write"]
    with pytest.raises(ConfigError):
        XrdmaConfig(rendezvous_variant="telepathy")


# ------------------------------------------------------------- conformance
@pytest.mark.parametrize("variant", TRANSPORTS)
def test_in_order_delivery_across_eager_and_rendezvous(cluster, variant):
    """Small messages must not overtake an earlier large transfer."""
    client, server, client_ch, server_ch = _variant_pair(
        cluster, variant, port=9500)
    sizes = [512, LARGE, 64, 300_000, 2048, LARGE, 128]
    for size in sizes:
        client.send_msg(client_ch, size)

    got = _drain(cluster, server, len(sizes))
    settle(cluster, 300 * MILLIS)         # trailing acks free src buffers
    assert [msg.payload_size for msg in got] == sizes
    assert server_ch._rendezvous == {}
    assert client_ch._write_pending == {}

    close_channels(cluster, client)
    settle(cluster)
    assert_quiescent(client, server)


@pytest.mark.parametrize("variant", TRANSPORTS)
def test_duplicate_arrivals_are_idempotent(cluster, variant):
    """A 40% duplicate filter on *both* ends: announces, data notifies,
    CTS grants, and acks may all be re-delivered — delivery stays
    exactly-once and in order, and no rendezvous state is re-created."""
    client, server, client_ch, server_ch = _variant_pair(
        cluster, variant, port=9510)
    server.filter = Filter(cluster.rng.stream("protocol-dup-server"))
    server.filter.add_rule(FaultRule(duplicate_probability=0.4))
    client.filter = Filter(cluster.rng.stream("protocol-dup-client"))
    client.filter.add_rule(FaultRule(duplicate_probability=0.4))

    n_small, n_large = 30, 8
    for _ in range(n_small):
        client.send_msg(client_ch, 512)
    for _ in range(n_large):
        client.send_msg(client_ch, LARGE)
    total = n_small + n_large

    got = _drain(cluster, server, total)
    settle(cluster, 300 * MILLIS)            # let trailing duplicates land
    got.extend(server.polling())

    assert server.filter.duplicated > 0      # the fault actually fired
    assert len(got) == total                 # exactly once regardless
    assert [msg.payload_size for msg in got] == \
        [512] * n_small + [LARGE] * n_large
    assert server_ch._pending_delivery == {}
    assert server_ch._rendezvous == {}
    assert client_ch._write_pending == {}

    server.filter.clear()
    client.filter.clear()
    close_channels(cluster, client)
    settle(cluster)
    assert_quiescent(client, server)


@pytest.mark.parametrize("variant", TRANSPORTS)
def test_teardown_accounting_mid_transfer(cluster, variant):
    """Break both ends while rendezvous transfers are in flight: every
    buffer (src-side, landing-side, pre-posted recv) must be returned."""
    client, server, client_ch, server_ch = _variant_pair(
        cluster, variant, port=9520)
    for _ in range(6):
        client.send_msg(client_ch, LARGE)
    settle(cluster, 30_000)           # announces/grants/fragments in flight
    client_ch.mark_broken("injected mid-transfer failure")
    server_ch.mark_broken("peer injected mid-transfer failure")
    settle(cluster, 500 * MILLIS)     # late CQEs and stray arrivals drain

    assert server_ch._rendezvous == {}
    assert client_ch._write_pending == {}
    assert_quiescent(client, server)


def test_write_variant_trace_chains_stay_zero_residual(cluster):
    """XR-Trace under Write-with-notify: CTS/FIN control traversals must
    not add or double-mark spans — every record finalizes with residual
    exactly zero and the large-message stages present."""
    config = XrdmaConfig(rendezvous_variant="write", req_rsp_mode=True,
                         trace_sample_mask=1)
    client, server, client_ch, server_ch = connect_pair(
        cluster, port=9530, client_config=config, server_config=config)
    sync = ClockSync(cluster.rng)
    client_tracer = Tracer(client, sync)
    server_tracer = Tracer(server, sync)

    n_small, n_large = 12, 6
    for _ in range(n_small):
        client.send_msg(client_ch, 512)
    for _ in range(n_large):
        client.send_msg(client_ch, LARGE)
    total = n_small + n_large

    got = _drain(cluster, server, total)
    settle(cluster, 300 * MILLIS)
    assert len(got) + len(server.polling()) == total

    assert len(client_tracer.records) == total
    assert all(record.complete and record.view == "sender"
               for record in client_tracer.records.values())
    large_records = [record for record in client_tracer.records.values()
                     if dict(record.spans).get("rendezvous_read") is not None]
    assert len(large_records) == n_large
    for record in client_tracer.records.values():
        assert record.residual_ns == 0
        assert sum(d for _, d in record.spans) == record.total_ns

    close_channels(cluster, client)
    settle(cluster)
    assert_quiescent(client, server)
