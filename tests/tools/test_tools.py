"""XR-Stat, XR-Ping, XR-Adm, XR-Perf."""

from dataclasses import fields

from repro.cluster import build_cluster
from repro.net.stats import NetStats
from repro.sim import SECONDS
from repro.tools import XrAdm, XrPerf, XrPing, XrStat
from tests.conftest import run_process
from tests.xrdma.conftest import connect_pair, make_context


# ------------------------------------------------------------------- XR-Stat

def test_xr_stat_channel_rows(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    stat = XrStat(cluster)
    stat.attach(client)
    stat.attach(server)

    def scenario():
        client.send_msg(client_ch, 4096)
        yield server.incoming.get()

    run_process(cluster, scenario(), limit=2 * SECONDS)
    rows = stat.channel_rows(client)
    assert len(rows) == 1
    assert rows[0]["remote"] == 1
    assert rows[0]["tx_msgs"] == 1
    assert rows[0]["tx_bytes"] == 4096
    server_rows = stat.channel_rows(server)
    assert server_rows[0]["rx_msgs"] == 1


def test_xr_stat_crucial_indexes_and_format(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    stat = XrStat(cluster)
    stat.attach(client)
    crucial = stat.crucial_indexes()
    assert set(crucial) >= {"pause_frames", "drops", "cnps_sent",
                            "rnr_naks", "buffer_utilization_bytes"}
    report = stat.format()
    assert "net:" in report
    assert str(client.nic.host_id) in report


def test_xr_stat_keeps_every_counter_under_its_own_name(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    stat = XrStat(cluster)
    crucial = stat.crucial_indexes()
    for field in fields(NetStats):
        assert crucial[field.name] == getattr(cluster.stats, field.name)
    (row,) = stat.channel_rows(client)
    for key, value in client_ch.stats.items():
        assert row[key] == value


# ------------------------------------------------------------------- XR-Ping

def test_xr_ping_full_mesh_all_reachable(cluster):
    contexts = [make_context(cluster, h) for h in range(3)]
    ping = XrPing(cluster, contexts)

    def scenario():
        matrix = yield from ping.run_mesh()
        return matrix

    matrix = run_process(cluster, scenario(), limit=60 * SECONDS)
    assert len(matrix) == 6
    assert all(rtt is not None and rtt > 0 for rtt in matrix.values())
    assert ping.unreachable_pairs() == []


def test_xr_ping_detects_dead_host(cluster):
    contexts = [make_context(cluster, h) for h in range(3)]
    ping = XrPing(cluster, contexts)
    cluster.host(2).nic.crash()

    def scenario():
        matrix = yield from ping.run_mesh()
        return matrix

    matrix = run_process(cluster, scenario(), limit=120 * SECONDS)
    dead_pairs = {pair for pair in ping.unreachable_pairs()}
    assert (0, 2) in dead_pairs and (1, 2) in dead_pairs
    assert matrix[(0, 1)] is not None


# -------------------------------------------------------------------- XR-Adm

def test_xr_adm_pushes_online_params(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    adm = XrAdm()
    adm.register(client)
    adm.register(server)
    results = adm.set("keepalive_intv_ms", 25.0)
    assert all(value == "ok" for value in results.values())
    assert adm.get("keepalive_intv_ms") == {client.name: 25.0,
                                            server.name: 25.0}


def test_xr_adm_rejects_offline_params_on_running_contexts(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    adm = XrAdm()
    adm.register(client)
    results = adm.set("use_srq", True)
    assert "offline" in results[client.name]


def test_xr_adm_detects_divergence(cluster):
    client, server, client_ch, server_ch = connect_pair(cluster)
    adm = XrAdm()
    adm.register(client)
    adm.register(server)
    before = adm.snapshot()
    assert before[client.name] == before[server.name]
    client.set_flag("slow_threshold_ns", 999)
    after = adm.snapshot()
    assert after[client.name]["slow_threshold_ns"] == 999
    assert after[server.name] == before[server.name]


# ------------------------------------------------------------------- XR-Perf

def test_xr_perf_incast_mode():
    cluster = build_cluster(4)
    perf = XrPerf(cluster)
    result = perf.run_incast([0, 1, 2], 3, size=64 * 1024,
                             messages_per_source=10)
    assert result.messages == 30
    assert result.bytes_moved == 30 * 64 * 1024
    assert result.goodput_gbps > 1.0
