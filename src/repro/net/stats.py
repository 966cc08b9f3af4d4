"""Cluster-wide wire statistics.

A single :class:`NetStats` is shared by all switches and NICs in a cluster;
benchmarks read it to report the paper's "crucial indexes" (Sec. VII-C):
CNP counts, PFC TX-pause counts, drops, ECN marks and delivered bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        return {
            "segments_sent": self.segments_sent,
            "segments_delivered": self.segments_delivered,
            "bytes_delivered": self.bytes_delivered,
            "data_bytes_delivered": self.data_bytes_delivered,
            "drops": self.drops,
            "ecn_marks": self.ecn_marks,
            "cnps_sent": self.cnps_sent,
            "pause_frames": self.pause_frames,
            "resume_frames": self.resume_frames,
            "rnr_naks": self.rnr_naks,
            "retransmissions": self.retransmissions,
        }
