"""Open-loop arrival processes (XR-Serve).

An arrival process answers one question — *when does the next request
arrive?* — and must answer it independently of how the system is coping
(that independence is what "open loop" means; the regression tests in
``tests/workloads`` pin the same property for ``open_loop_sender``).

Every process draws exclusively from the :class:`~repro.sim.rng.RngStream`
it was constructed with, and its gap sequence depends only on the stream
and on the arrival times themselves (never on completions or queue
state), so a tenant's whole arrival schedule is a pure function of
``(root seed, stream name)`` — the property the window-digest checks in
:mod:`repro.serving.windows` rest on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.sim.timeunits import SECONDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import RngStream

__all__ = ["ArrivalProcess", "PoissonArrivals", "MmppArrivals",
           "make_arrivals"]


def _gap_from_rate(rng: "RngStream", rate_per_s: float) -> int:
    """One exponential inter-arrival gap at ``rate_per_s`` (ns, >= 1)."""
    return max(1, int(rng.exponential(SECONDS / rate_per_s)))


class ArrivalProcess:
    """Base class: a deterministic generator of inter-arrival gaps."""

    def __init__(self, rng: "RngStream") -> None:
        self.rng = rng
        self.arrivals = 0

    def next_gap_ns(self, now_ns: int) -> int:
        """Gap from ``now_ns`` to the next arrival (subclass hook)."""
        raise NotImplementedError

    def schedule(self, duration_ns: int) -> List[int]:
        """Materialize every arrival time in ``[0, duration)``.

        Consumes the stream exactly the way the live driver does, so a
        fresh process over a same-named stream reproduces the driver's
        schedule — what the determinism tests compare against.
        """
        times: List[int] = []
        now = 0
        while True:
            now += self.next_gap_ns(now)
            if now >= duration_ns:
                return times
            times.append(now)


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a constant mean rate."""

    def __init__(self, rng: "RngStream", rate_per_s: float) -> None:
        super().__init__(rng)
        if rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
        self.rate_per_s = rate_per_s

    def next_gap_ns(self, now_ns: int) -> int:
        self.arrivals += 1
        return _gap_from_rate(self.rng, self.rate_per_s)


class MmppArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (bursty on-off load).

    The process alternates between a *base* state and a *burst* state;
    dwell times in each are exponential.  During a burst the arrival rate
    multiplies — the Fig. 12 "throughput x3 under promotion pressure"
    shape, but as an open-loop offered load.  State flips are driven by
    arrival times only, so the schedule stays completion-independent.
    """

    def __init__(self, rng: "RngStream", rate_per_s: float,
                 burst_rate_per_s: float, mean_base_ns: int,
                 mean_burst_ns: int) -> None:
        super().__init__(rng)
        if rate_per_s <= 0 or burst_rate_per_s <= 0:
            raise ValueError("both rates must be positive")
        if mean_base_ns <= 0 or mean_burst_ns <= 0:
            raise ValueError("both dwell times must be positive")
        self.rate_per_s = rate_per_s
        self.burst_rate_per_s = burst_rate_per_s
        self.mean_base_ns = mean_base_ns
        self.mean_burst_ns = mean_burst_ns
        self.bursting = False
        self.state_flips = 0
        #: sim time at which the current state's dwell expires
        self._state_until = -1

    def _dwell_ns(self) -> int:
        mean = self.mean_burst_ns if self.bursting else self.mean_base_ns
        return max(1, int(self.rng.exponential(mean)))

    def next_gap_ns(self, now_ns: int) -> int:
        if self._state_until < 0:       # first draw anchors the state clock
            self._state_until = now_ns + self._dwell_ns()
        while now_ns >= self._state_until:
            self.bursting = not self.bursting
            self.state_flips += 1
            self._state_until += self._dwell_ns()
        rate = self.burst_rate_per_s if self.bursting else self.rate_per_s
        self.arrivals += 1
        return _gap_from_rate(self.rng, rate)


def make_arrivals(kind: str, rng: "RngStream", rate_per_s: float,
                  duration_ns: int = SECONDS) -> ArrivalProcess:
    """Build an arrival process from flat scenario parameters.

    ``kind`` is ``poisson`` or ``mmpp`` — scalar strings, so fleet grids
    can sweep it.  ``mmpp`` bursts at 6x the base rate with dwell times
    sized so several on-off cycles fit into ``duration_ns``.
    """
    if kind == "poisson":
        return PoissonArrivals(rng, rate_per_s)
    if kind == "mmpp":
        return MmppArrivals(rng, rate_per_s, rate_per_s * 6.0,
                            mean_base_ns=max(1, duration_ns // 8),
                            mean_burst_ns=max(1, duration_ns // 16))
    raise ValueError(f"unknown arrival kind {kind!r}; "
                     f"choose poisson or mmpp")
