"""The cluster-scale scenario family: geometry, spec wiring, and the
rack-sharded emulation path end to end (at reduced scale)."""

import pytest

from repro.cluster import RACK_HOSTS, cluster_dims
from repro.fleet.experiments import spec_names, specs_for
from tests.conftest import run_scenario_inline


def test_cluster_dims_geometry():
    dims = cluster_dims(1024)
    assert dims == {"n_pods": 8, "tors_per_pod": 8, "hosts_per_tor": 16,
                    "leaves_per_pod": 2, "n_spines": 2}
    dims = cluster_dims(256)
    assert dims["n_pods"] == 2 and dims["tors_per_pod"] == 8
    for n_hosts in (32, 128, 256, 512, 1024, 2048):
        dims = cluster_dims(n_hosts)
        capacity = (dims["n_pods"] * dims["tors_per_pod"]
                    * dims["hosts_per_tor"])
        assert capacity >= n_hosts


def test_cluster_scale_spec_set_registered():
    assert "cluster-scale" in spec_names()
    quick = specs_for(["cluster-scale"], quick=True)
    assert {spec.name for spec in quick} == \
        {"cluster-connect-storm", "cluster-incast"}
    for spec in quick:
        assert spec.grid["n_hosts"] == [256]
        assert len(spec.expand()) <= 2         # CI-smoke sized
    full = specs_for(["cluster-scale"], quick=False)
    for spec in full:
        assert spec.grid["n_hosts"] == [1024]
        assert spec.grid["rack"] == list(range(1024 // RACK_HOSTS))


def test_connect_storm_shard_runs_and_crosses_spine():
    record = run_scenario_inline(
        "cluster-connect-storm",
        {"n_hosts": 256, "rack": 0, "connects_per_host": 1})
    metrics = record["metrics"]
    assert metrics["connects"] == RACK_HOSTS
    assert metrics["spine_tx_bytes"] > 0       # gateway sits one pod away
    assert metrics["background_flows"] == 256 // RACK_HOSTS - 2
    assert metrics["attached_hosts"] == RACK_HOSTS + 1
    assert metrics["emulated_hosts"] == 256
    assert metrics["fabric_bytes_per_node"] > 0
    assert record["events"] > 0


def test_cluster_incast_shard_contends_with_background():
    record = run_scenario_inline(
        "cluster-incast",
        {"n_hosts": 256, "rack": 9, "size": 8192, "messages": 1})
    metrics = record["metrics"]
    assert metrics["goodput_gbps"] > 0
    assert metrics["messages"] == RACK_HOSTS
    # Every emulated host outside the shard converges on the sink.
    assert metrics["background_flows"] == 256 - (RACK_HOSTS + 1)
    assert metrics["background_bytes"] > metrics["foreground_bytes"]
    assert metrics["spine_tx_bytes"] > 0


def test_cluster_scenarios_are_deterministic():
    params = {"n_hosts": 256, "rack": 3, "connects_per_host": 1}
    first = run_scenario_inline("cluster-connect-storm", params)
    second = run_scenario_inline("cluster-connect-storm", params)
    assert first["digest"] == second["digest"]
    assert first["metrics"] == second["metrics"]


def test_rack_shard_validation():
    with pytest.raises(Exception):
        run_scenario_inline("cluster-connect-storm",
                            {"n_hosts": 256, "rack": 99})
