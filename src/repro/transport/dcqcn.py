"""DCQCN (Zhu et al., SIGCOMM'15) — the fabric's reactive congestion control.

One :class:`DcqcnRateLimiter` per QP at the sender NIC:

* a CNP cuts the current rate by ``alpha/2`` and remembers the target,
* ``alpha`` decays while no CNPs arrive,
* a rate-increase timer runs fast recovery (binary convergence back to the
  target), then additive increase, then hyper increase.

The receiver side is :class:`CnpGovernor`: it turns ECN-marked arrivals into
CNP segments, at most one per ``dcqcn_cnp_interval_ns`` per flow.

Timers are evaluated *lazily*: rather than one process per QP (there can be
thousands), elapsed decay/increase periods are applied when the limiter is
next consulted.  This is behaviourally equivalent on the send path, which
only observes the rate when it transmits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.params import SimParams

#: Additive-increase step (bytes/s equivalent of 40 Mbps, the DCQCN default
#: scaled to the 25 Gbps links used here).
_RAI_BPS = 40e6
#: Hyper-increase step.
_RHAI_BPS = 400e6


class DcqcnRateLimiter:
    """Per-flow sender state; the NIC asks it when the next byte may go."""

    def __init__(self, sim: "Simulator", params: "SimParams",
                 line_rate_bps: float):
        self.sim = sim
        self.params = params
        self.line_rate = line_rate_bps
        self.current_rate = line_rate_bps
        self.target_rate = line_rate_bps
        self.alpha = 1.0
        self._last_alpha_update_ns = 0
        self._last_increase_ns = 0
        self._increase_stage = 0
        #: earliest time the next segment may start transmitting
        self.next_tx_ns = 0

    # ---------------------------------------------------------------- events
    def on_cnp(self) -> None:
        """Rate cut on congestion notification."""
        self._advance(self.sim._now)
        self.target_rate = self.current_rate
        self.alpha = (1 - self.params.dcqcn_alpha_g) * self.alpha \
            + self.params.dcqcn_alpha_g
        self.current_rate = max(
            self.params.dcqcn_min_rate_bps,
            self.current_rate * (1 - self.alpha / 2))
        now = self.sim._now
        self._last_alpha_update_ns = now
        self._last_increase_ns = now
        self._increase_stage = 0

    # ------------------------------------------------------------- send path
    def rate_bps(self) -> float:
        """Current sending rate after applying elapsed timer periods."""
        self._advance(self.sim._now)
        return self.current_rate

    def reserve(self, nbytes: int) -> int:
        """Reserve wire time for ``nbytes``; returns the earliest start time.

        The caller (the NIC scheduler) must not start transmitting the
        segment before the returned instant.
        """
        rate = self.rate_bps()
        start = max(self.sim._now, self.next_tx_ns)
        self.next_tx_ns = start + int(round(nbytes * 8 / rate * 1e9))
        return start

    # --------------------------------------------------------------- internal
    def _advance(self, now: int) -> None:
        """Apply alpha decay and rate-increase periods elapsed since last look."""
        p = self.params
        # Alpha decay: one EWMA step per elapsed update period without CNP.
        periods = (now - self._last_alpha_update_ns) // p.dcqcn_alpha_update_ns
        if periods > 0:
            self.alpha *= (1 - p.dcqcn_alpha_g) ** min(int(periods), 10_000)
            self._last_alpha_update_ns += periods * p.dcqcn_alpha_update_ns

        # Rate increase stages.
        periods = (now - self._last_increase_ns) // p.dcqcn_rate_increase_ns
        if periods <= 0:
            return
        for _ in range(min(int(periods), 64)):
            self._increase_stage += 1
            if self._increase_stage > p.dcqcn_hyper_increase_stages * 2:
                self.target_rate = min(self.line_rate,
                                       self.target_rate + _RHAI_BPS)
            elif self._increase_stage > p.dcqcn_hyper_increase_stages:
                self.target_rate = min(self.line_rate,
                                       self.target_rate + _RAI_BPS)
            self.current_rate = (self.current_rate + self.target_rate) / 2
        self.current_rate = min(self.current_rate, self.line_rate)
        self._last_increase_ns += periods * p.dcqcn_rate_increase_ns


class CnpGovernor:
    """Receiver-side CNP pacing: at most one CNP per flow per interval."""

    def __init__(self, sim: "Simulator", params: "SimParams"):
        self.sim = sim
        self.params = params
        self._last_cnp: Dict[int, int] = {}

    def should_send_cnp(self, flow_id: int) -> bool:
        """True if an ECN-marked arrival on ``flow_id`` warrants a CNP now."""
        now = self.sim._now
        last = self._last_cnp.get(flow_id)
        if last is not None and now - last < self.params.dcqcn_cnp_interval_ns:
            return False
        self._last_cnp[flow_id] = now
        return True
