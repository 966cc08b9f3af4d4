"""X-RDMA's built-in analysis framework (Sec. VI).

* :class:`~repro.analysis.tracing.Tracer` — req-rsp tracing: latency
  decomposition with synchronized clocks, the poll-gap watchdog, and
  slow-segment logging; :func:`~repro.analysis.tracing.analyze` folds its
  records into numbers (nearest-rank percentiles, see
  :mod:`repro.analysis.stats`).
* :class:`~repro.analysis.clocksync.ClockSync` — the clock-offset service
  the network-time decomposition needs.
* :class:`~repro.analysis.monitor.Monitor` — the centralized collector the
  XR-* tools and production figures read from.
* :class:`~repro.analysis.faultfilter.Filter` — error injection (drops,
  delays, duplicates) on the data plane, tunable online.
* :class:`~repro.analysis.mock.Mock` — temporary TCP fallback.
* :class:`~repro.analysis.invariants.InvariantRegistry` — the runtime
  protocol-sanitizer: inline invariant hooks plus structural deep checks,
  fatal under tests and counting under benches.
"""

from repro.analysis.clocksync import ClockSync, HostClock
from repro.analysis.faultfilter import FaultRule, Filter
from repro.analysis.invariants import (InvariantError, InvariantRegistry,
                                       verify_context)
from repro.analysis.mock import Mock
from repro.analysis.monitor import Monitor
from repro.analysis.report import series_panel, sparkline
from repro.analysis.tracing import TraceContext, TraceRecord, Tracer

__all__ = ["ClockSync", "FaultRule", "Filter", "HostClock",
           "InvariantError", "InvariantRegistry", "Mock", "Monitor",
           "TraceContext", "TraceRecord", "Tracer",
           "series_panel", "sparkline", "verify_context"]
