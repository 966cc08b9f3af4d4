"""Cluster-wide wire statistics.

A single :class:`NetStats` is shared by all switches and NICs in a cluster;
benchmarks read it to report the paper's "crucial indexes" (Sec. VII-C):
CNP counts, PFC TX-pause counts, drops, ECN marks and delivered bytes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict


@dataclass
class NetStats:
    """Mutable counters; cheap to update on the hot path."""

    segments_sent: int = 0
    segments_delivered: int = 0
    bytes_delivered: int = 0
    data_bytes_delivered: int = 0
    drops: int = 0
    ecn_marks: int = 0
    cnps_sent: int = 0
    pause_frames: int = 0
    resume_frames: int = 0
    rnr_naks: int = 0
    retransmissions: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Scalar counters as a plain dict (for XR-Stat and tests)."""
        return asdict(self)
