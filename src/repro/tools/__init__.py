"""The XR-* utilities (Sec. IV-A / VI-B).

* :class:`~repro.tools.xr_stat.XrStat` — per-channel statistics (netstat
  for RDMA) plus the fabric's crucial indexes.
* :class:`~repro.tools.xr_ping.XrPing` — RDMA-native full-mesh ping: one
  probe pass over every ordered host pair gives the RTT matrix and the
  unreachable pairs.
* :class:`~repro.tools.xr_perf.XrPerf` — stress driver: N→1 incast of
  open-loop senders, reported as goodput plus the crucial indexes.
* :class:`~repro.tools.xr_adm.XrAdm` — online configuration distribution:
  push a parameter to every context, read it back, dump every config.

Sec. IV-A's fifth utility, the standing XR-Server, has no class of its
own: XR-Ping's responder plays that role.
"""

from repro.tools.xr_adm import XrAdm
from repro.tools.xr_perf import PerfResult, XrPerf
from repro.tools.xr_ping import XrPing
from repro.tools.xr_stat import XrStat

__all__ = ["PerfResult", "XrAdm", "XrPerf", "XrPing", "XrStat"]
