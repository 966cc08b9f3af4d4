"""The elastic control plane (Sec. IV-E grown up, ROADMAP item 3).

X-RDMA's data path is cheap; what dominates elastic workloads is the
*control plane* — QP creation/teardown, MR registration/pinning and the
CM handshake (the Swift observation).  This package pools and caches the
expensive control-plane objects so channel churn pays warm-cache prices:

* :class:`QpCache` — RESET-state QP pool (``repro.xrdma`` re-exports it).
* :class:`MrRegCache` — registration cache in front of ``verbs.reg_mr``:
  deregistration becomes lazy, re-registration of a same-sized region
  becomes free, and batched registration amortizes the per-call base
  cost (the driver round trip) across many regions.

The NP-RDMA-style no-pin (on-demand paging) mode lives in
:class:`repro.xrdma.memcache.MemCache` as an ablation axis and is wired
through :class:`repro.xrdma.config.XrdmaConfig`.
"""

from repro.ctrlplane.mrcache import MrRegCache
from repro.ctrlplane.qpcache import QpCache

__all__ = ["MrRegCache", "QpCache"]
