"""The elastic control plane (Sec. IV-E).

X-RDMA's data path is cheap; what dominates elastic workloads is the
*control plane* — QP creation/teardown, MR registration/pinning and the
CM handshake (the Swift observation).  Registration cost is already
spread by the memory cache's few large MRs
(:class:`repro.xrdma.memcache.MemCache`); this package pools the other
expensive object, so channel churn pays warm-cache prices:

* :class:`QpCache` — RESET-state QP pool (``repro.xrdma`` re-exports it).

The NP-RDMA-style no-pin (on-demand paging) mode lives in
:class:`repro.xrdma.memcache.MemCache` as an ablation axis and is wired
through :class:`repro.xrdma.config.XrdmaConfig`.
"""

from repro.ctrlplane.qpcache import QpCache

__all__ = ["QpCache"]
