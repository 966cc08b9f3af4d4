"""Clock synchronization for latency decomposition (Sec. VI-A, method I).

Each host's clock runs at a fixed skew from simulated time; the tracer's
``T2 - T1 - Toff`` decomposition needs ``Toff`` estimated the way the
production service does — an NTP-style exchange whose residual error is
bounded by the RTT asymmetry, not assumed to be zero.

Estimates are cached per host pair and stamped with the sync time; with a
``resync_after_ns`` policy the cache ages and long runs re-estimate
instead of trusting an exchange from minutes ago.  Self-offsets are exact
zero by definition — no exchange, no residual.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import RngRegistry


class HostClock:
    """A host's local clock: simulated time plus a fixed offset."""

    def __init__(self, host_id: int, offset_ns: int):
        self.host_id = host_id
        self.offset_ns = offset_ns

    def read(self, sim_now: int) -> int:
        return sim_now + self.offset_ns


class ClockSync:
    """Cluster clock service: true offsets plus NTP-style estimates."""

    #: bound on the estimate's residual error (one-way asymmetry)
    RESIDUAL_BOUND_NS = 2_000
    #: bound on each host clock's true offset from simulated time
    MAX_SKEW_NS = 1_000_000

    def __init__(self, rng: "RngRegistry",
                 resync_after_ns: Optional[int] = None):
        self._rng = rng.stream("clocksync")
        #: estimates older than this are re-synced by :meth:`offset`
        #: (None: cached estimates never age — the seed behaviour)
        self.resync_after_ns = resync_after_ns
        self._clocks: Dict[int, HostClock] = {}
        #: (a, b) -> (estimated offset, synced-at timestamp)
        self._estimates: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.exchanges = 0      #: NTP exchanges run (resync visibility)

    def clock(self, host_id: int) -> HostClock:
        existing = self._clocks.get(host_id)
        if existing is None:
            offset = self._rng.randint(-self.MAX_SKEW_NS, self.MAX_SKEW_NS)
            existing = HostClock(host_id, offset)
            self._clocks[host_id] = existing
        return existing

    def true_offset(self, a: int, b: int) -> int:
        """Exact ``clock_b - clock_a`` (ground truth, for tests)."""
        return self.clock(b).offset_ns - self.clock(a).offset_ns

    def sync(self, a: int, b: int, now_ns: int = 0) -> int:
        """Run one NTP exchange; returns (and caches) the estimated offset.

        The estimate equals the true offset plus a bounded residual from
        path asymmetry.  A host's offset to itself is exactly zero — no
        exchange happens (and no entropy is consumed), so self-sync can
        never report phantom skew.
        """
        if a == b:
            self._estimates[(a, a)] = (0, now_ns)
            return 0
        residual = self._rng.randint(-self.RESIDUAL_BOUND_NS,
                                     self.RESIDUAL_BOUND_NS)
        estimate = self.true_offset(a, b) + residual
        self._estimates[(a, b)] = (estimate, now_ns)
        self._estimates[(b, a)] = (-estimate, now_ns)
        self.exchanges += 1
        return estimate

    def offset(self, a: int, b: int, now_ns: Optional[int] = None) -> int:
        """Last synced estimate, syncing first if never done.

        With ``resync_after_ns`` set and a caller-supplied ``now_ns``, an
        estimate older than the policy is refreshed before use.
        """
        found = self._estimates.get((a, b))
        if found is None:
            return self.sync(a, b, now_ns if now_ns is not None else 0)
        estimate, synced_at = found
        if (self.resync_after_ns is not None and now_ns is not None
                and now_ns - synced_at >= self.resync_after_ns):
            return self.sync(a, b, now_ns)
        return estimate
