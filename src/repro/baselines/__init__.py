"""Comparators from the paper's evaluation (Sec. VII-A, Fig. 7).

Each baseline runs over the *same* simulated RNIC/fabric, differing only in
the software protocol and per-operation overheads the real systems exhibit:

* :class:`IbvPingPong` — the native-verbs ideal baseline.
* :class:`UcxEndpoint` — UCX active-message RC (``ucx-am-rc``).
* :class:`LibfabricEndpoint` — libfabric reliable endpoints.
* :class:`XioEndpoint` — accelio-style request/response.
* :mod:`~repro.baselines.tcpstack` — kernel TCP (and the Mock fallback).
"""

from repro.baselines.common import (IbvPingPong, LibfabricEndpoint,
                                    UcxEndpoint, XioEndpoint)
from repro.baselines.tcpstack import TcpAgent, TcpListener, TcpSocket

__all__ = ["IbvPingPong", "LibfabricEndpoint", "TcpAgent", "TcpListener",
           "TcpSocket", "UcxEndpoint", "XioEndpoint"]
