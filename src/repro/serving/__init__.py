"""XR-Serve: multi-tenant open-loop serving on top of the X-RDMA stack.

The rest of the repro measures *closed-loop* workloads: a sender issues
the next message only after the previous one completed, so offered load
adapts itself to whatever the system can absorb and tail latency is
flattered by construction.  Production serving is the opposite regime —
requests arrive on their own schedule (open loop), tenants with very
different traffic shapes share one fabric, and what matters is whether
each tenant's latency SLO holds *per measurement window* under the load
actually offered.

This package supplies that layer:

* :mod:`repro.serving.arrivals` — deterministic open-loop arrival
  processes (Poisson and bursty MMPP on-off), every draw from a named
  :class:`~repro.sim.rng.RngStream` so schedules are digest-reproducible;
* :mod:`repro.serving.windows` — the stable-window measurement engine:
  per-window latency/throughput stats with warmup/cooldown exclusion,
  offered-vs-achieved load tracking, and SLO percentile verdicts;
* :mod:`repro.serving.tenant` — the :class:`Tenant` abstraction (traffic
  classes, channel-selection policies) and the harness that runs many
  tenants against shared serving endpoints.

The fleet side (``--spec serving``, scenarios, the ``windows.jsonl``
artifact) lives in :mod:`repro.fleet.serving`; the reporting CLI is
:mod:`repro.tools.xr_slo`.
"""

from repro.serving.arrivals import (ArrivalProcess, MmppArrivals,
                                    PoissonArrivals, make_arrivals)
from repro.serving.tenant import (BULK_CLASS, RPC_CLASS, ServingHarness,
                                  Tenant, TenantSpec, TrafficClass)
from repro.serving.windows import SloTarget, WindowedRecorder

__all__ = ["ArrivalProcess", "BULK_CLASS", "MmppArrivals", "PoissonArrivals",
           "RPC_CLASS", "ServingHarness", "SloTarget", "Tenant", "TenantSpec",
           "TrafficClass", "WindowedRecorder", "make_arrivals"]
