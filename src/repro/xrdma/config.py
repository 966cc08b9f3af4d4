"""X-RDMA configuration (Table III).

Parameters are split into **online** (changeable at runtime through
``xrdma_set_flag`` / XR-Adm) and **offline** (fixed once the context runs).
Attempting to flip an offline parameter on a running context raises
:class:`ConfigError` — the same guard the production tooling enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict

from repro.sim.timeunits import MICROS, MILLIS

#: Names changeable while the context is running (Table III, "Online").
ONLINE_PARAMS = frozenset({
    "keepalive_intv_ms",
    "slow_threshold_ns",
    "polling_warn_cycle_ns",
    "trace_sample_mask",
    "req_rsp_mode",
    "flow_control",
    "deadlock_check_intv_ms",
})


class ConfigError(ValueError):
    """Unknown parameter, bad value, or offline change at runtime."""


@dataclass
class XrdmaConfig:
    """All tunables; defaults follow the paper's production choices."""

    # ------------------------------------------------------------- online
    keepalive_intv_ms: float = 100.0     #: probe after this idle time
    slow_threshold_ns: int = 50 * MICROS  #: log segments slower than this
    polling_warn_cycle_ns: int = 500 * MICROS  #: poll-gap watchdog threshold
    trace_sample_mask: int = 0           #: 0 = trace nothing; 1 = everything
    req_rsp_mode: bool = False           #: tracing headers on (vs bare-data)
    flow_control: bool = True            #: fragmentation + queuing on
    deadlock_check_intv_ms: float = 10.0

    # ------------------------------------------------------------ offline
    use_srq: bool = False                #: disabled by default (Sec. VII-F)
    cq_size: int = 4096
    srq_size: int = 1024
    small_msg_size: int = 4096           #: ≤ this uses eager RDMA Send
    #: rendezvous data movement above the eager threshold: "read" is the
    #: paper's receiver-driven RDMA Read; "write" is sender
    #: Write-with-notify (CTS grant + WRITE_IMM FIN).  Both channel ends
    #: must agree, exactly like small_msg_size.
    rendezvous_variant: str = "read"
    inflight_depth: int = 32             #: seq-ack window (≪ CQ depth)
    fragment_bytes: int = 64 * 1024      #: flow-control fragment size
    max_outstanding_wrs: int = 8         #: queuing cap per channel
    context_outstanding_wrs: int = 4     #: shared cap across all channels
    memcache_mr_bytes: int = 4 * 1024 * 1024  #: 4 MB MRs (LITE lesson)
    prepost_slack: int = 4               #: extra recvs beyond the window
    # --------------------------------------------- control plane (ctrlplane)
    qp_cache_capacity: int = 64          #: RESET-QP pool size (0 disables)
    memcache_no_pin: bool = False        #: NP-RDMA-style on-demand paging
    close_drain_timeout_ns: int = 50 * MILLIS  #: drain bound before ERROR

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------- checks
    def validate(self) -> None:
        """Reject inconsistent parameter combinations."""
        if self.inflight_depth < 2:
            raise ConfigError("inflight_depth must be >= 2 (one slot is "
                              "held back for control headers)")
        if self.inflight_depth >= self.cq_size:
            raise ConfigError("inflight_depth must stay below cq_size")
        if self.small_msg_size <= 0 or self.fragment_bytes <= 0:
            raise ConfigError("sizes must be positive")
        if self.rendezvous_variant not in ("read", "write"):
            raise ConfigError(
                f"unknown rendezvous_variant {self.rendezvous_variant!r}")
        if self.max_outstanding_wrs < 1:
            raise ConfigError("max_outstanding_wrs must be >= 1")
        if self.context_outstanding_wrs < 1:
            raise ConfigError("context_outstanding_wrs must be >= 1")
        if self.qp_cache_capacity < 0:
            raise ConfigError("qp_cache_capacity must be >= 0")
        if self.close_drain_timeout_ns <= 0:
            raise ConfigError("close_drain_timeout_ns must be positive")
        # The two intervals in integer nanoseconds.  Plain attributes, not
        # properties: the poll loop reads both on every round.  validate()
        # runs at construction and after every set_flag, so a changed
        # interval still applies live.
        self.keepalive_intv_ns = int(self.keepalive_intv_ms * MILLIS)
        self.deadlock_check_intv_ns = int(self.deadlock_check_intv_ms * MILLIS)

    # ------------------------------------------------------------ set_flag
    def set_flag(self, name: str, value: Any, running: bool = True) -> None:
        """The ``xrdma_set_flag`` API: dynamic configuration changes."""
        known = {f.name for f in fields(self)}
        if name not in known:
            raise ConfigError(f"unknown config parameter {name!r}")
        if running and name not in ONLINE_PARAMS:
            raise ConfigError(
                f"{name!r} is an offline parameter; restart required")
        setattr(self, name, value)
        self.validate()

    def snapshot(self) -> Dict[str, Any]:
        """All parameters as a plain dict (XR-Adm dumps and drift checks)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
