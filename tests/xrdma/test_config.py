"""Table III: online vs offline configuration semantics."""

import pytest

from repro.xrdma import ConfigError, XrdmaConfig


def test_defaults_follow_the_paper():
    config = XrdmaConfig()
    assert config.small_msg_size == 4096          # Sec. IV-C
    assert config.fragment_bytes == 64 * 1024     # Sec. V-C
    assert config.memcache_mr_bytes == 4 * 1024 * 1024  # Sec. IV-E
    assert config.use_srq is False                # Sec. VII-F
    assert config.flow_control is True


def test_online_param_changes_at_runtime():
    config = XrdmaConfig()
    config.set_flag("keepalive_intv_ms", 10.0, running=True)
    assert config.keepalive_intv_ms == 10.0


@pytest.mark.parametrize("name", [
    "keepalive_intv_ms", "slow_threshold_ns", "polling_warn_cycle_ns",
    "trace_sample_mask", "req_rsp_mode", "flow_control",
])
def test_all_online_params_are_settable(name):
    config = XrdmaConfig()
    current = getattr(config, name)
    new = (not current) if isinstance(current, bool) else current
    config.set_flag(name, new, running=True)


@pytest.mark.parametrize("name,value", [
    ("use_srq", True),
    ("cq_size", 8192),
    ("small_msg_size", 8192),
    ("inflight_depth", 16),
    ("rendezvous_variant", "write"),
])
def test_offline_params_rejected_at_runtime(name, value):
    config = XrdmaConfig()
    with pytest.raises(ConfigError, match="offline"):
        config.set_flag(name, value, running=True)


def test_offline_params_settable_before_start():
    config = XrdmaConfig()
    config.set_flag("use_srq", True, running=False)
    assert config.use_srq is True


def test_unknown_param_rejected():
    config = XrdmaConfig()
    with pytest.raises(ConfigError, match="unknown"):
        config.set_flag("no_such_thing", 1)


@pytest.mark.parametrize("name,value", [
    ("idle_poll_mode", "busy"), ("fork_safe", True),
    ("ibqp_alloc_type", "hugepage"), ("memcache_isolated", True),
])
def test_fixed_behaviour_is_no_config_field(name, value):
    """Hybrid polling, anonymous arenas, no fork model, no isolation."""
    for running in (True, False):
        with pytest.raises(ConfigError, match="unknown"):
            XrdmaConfig().set_flag(name, value, running=running)
    with pytest.raises(TypeError, match=name):
        XrdmaConfig(**{name: value})


def test_window_depth_validation():
    with pytest.raises(ConfigError):
        XrdmaConfig(inflight_depth=1)
    with pytest.raises(ConfigError):
        XrdmaConfig(inflight_depth=4096, cq_size=4096)


def test_rendezvous_variant_validation():
    with pytest.raises(ConfigError, match="rendezvous_variant"):
        XrdmaConfig(rendezvous_variant="weird")


def test_snapshot_roundtrip():
    config = XrdmaConfig()
    snap = config.snapshot()
    assert snap["small_msg_size"] == 4096
    assert set(snap) >= {"keepalive_intv_ms", "use_srq", "inflight_depth"}


def test_validation_after_set_flag():
    config = XrdmaConfig()
    with pytest.raises(ConfigError):
        config.set_flag("deadlock_check_intv_ms", 10.0, running=True) or \
            config.set_flag("inflight_depth", 0, running=False)
