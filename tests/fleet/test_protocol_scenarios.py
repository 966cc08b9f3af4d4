"""Protocol-ablation fleet scenarios: wiring, axes, reproducibility."""

from repro.fleet.experiments import spec_names, specs_for
from repro.fleet.runner import resolve_scenario
from repro.fleet.protocol import protocol_config
from tests.conftest import run_scenario_inline


def test_scenarios_resolve_by_name():
    assert resolve_scenario("protocol-pingpong")
    assert resolve_scenario("protocol-incast")
    assert resolve_scenario("protocol-serving")


def test_protocol_ablation_spec_set():
    assert "protocol-ablation" in spec_names()
    specs = specs_for(["protocol-ablation"], quick=True)
    names = {spec.name for spec in specs}
    assert names == {"protocol-pingpong", "protocol-incast",
                     "protocol-serving"}
    for spec in specs:
        units = spec.expand()
        assert units, "spec expands to no runs"
        variants = {dict(unit.params)["rendezvous_variant"]
                    for unit in units}
        assert variants == {"read", "write"}   # every workload sweeps both


def test_protocol_config_maps_all_axes():
    config = protocol_config({"rendezvous_variant": "write",
                              "small_msg_size": 1024,
                              "fragment_bytes": 16 * 1024,
                              "inflight_depth": 8,
                              "unrelated": "ignored"})
    assert config.rendezvous_variant == "write"
    assert config.small_msg_size == 1024
    assert config.fragment_bytes == 16 * 1024
    assert config.inflight_depth == 8
    assert protocol_config({}).rendezvous_variant == "read"


def test_pingpong_rendezvous_counters_follow_the_variant():
    large = {"size": 256 * 1024}
    read = run_scenario_inline("protocol-pingpong",
                               {"rendezvous_variant": "read", **large},
                               seed=0)
    write = run_scenario_inline("protocol-pingpong",
                                {"rendezvous_variant": "write", **large},
                                seed=0)
    assert read["metrics"]["rtt_us"] > 0
    assert write["metrics"]["rtt_us"] > 0
    # The read variant RDMA-Reads on the server channel; the write
    # variant RDMA-Writes from the client channel.
    assert read["metrics"]["rendezvous_reads"] > 0
    assert read["metrics"]["rendezvous_writes"] == 0
    assert write["metrics"]["rendezvous_writes"] > 0
    assert write["metrics"]["rendezvous_reads"] == 0


def test_same_seed_same_schedule_per_variant():
    params = {"rendezvous_variant": "write", "size": 256 * 1024}
    a = run_scenario_inline("protocol-pingpong", params, seed=5)
    b = run_scenario_inline("protocol-pingpong", params, seed=5)
    assert a["digest"] == b["digest"]
    assert a["metrics"] == b["metrics"]


def test_incast_runs_under_both_variants():
    for variant in ("read", "write"):
        record = run_scenario_inline(
            "protocol-incast", {"rendezvous_variant": variant}, seed=0)
        assert record["metrics"]["goodput_gbps"] > 0
        assert record["metrics"]["messages"] == 4 * 4 * 8   # every one
