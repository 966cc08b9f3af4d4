"""Workload generation: flow models and production-shaped traces."""

from repro.workloads.flows import (FlowSpec, mice_size, open_loop_sender,
                                   request_loop)
from repro.workloads.traces import burst_profile, diurnal_profile, rate_at

__all__ = ["FlowSpec", "burst_profile", "diurnal_profile", "mice_size",
           "open_loop_sender", "rate_at", "request_loop"]
