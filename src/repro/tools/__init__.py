"""The XR-* utilities (Sec. IV-A / VI-B).

* :class:`~repro.tools.xr_stat.XrStat` — per-channel statistics (netstat
  for RDMA) plus the fabric's crucial indexes.
* :class:`~repro.tools.xr_ping.XrPing` — RDMA-native full-mesh ping with a
  connection matrix.
* :class:`~repro.tools.xr_perf.XrPerf` — benchmark/stress driver with
  customizable flow models (elephant/mice, incast).
* :class:`~repro.tools.xr_adm.XrAdm` — online configuration distribution.

Sec. IV-A's fifth utility, the standing XR-Server, has no class of its
own: XR-Ping's responder and XR-Perf's echo loop play that role.
"""

from repro.tools.xr_adm import XrAdm
from repro.tools.xr_perf import PerfResult, XrPerf
from repro.tools.xr_ping import XrPing
from repro.tools.xr_stat import XrStat

__all__ = ["PerfResult", "XrAdm", "XrPerf", "XrPing", "XrStat"]
