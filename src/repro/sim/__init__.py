"""Discrete-event simulation engine underlying the X-RDMA reproduction.

The engine is a classic event-queue / generator-coroutine design (similar in
spirit to simpy, written from scratch for this project so the whole substrate
is self-contained).  Simulated time is measured in integer **nanoseconds**.

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event loop.
* :class:`~repro.sim.process.Process` — a running coroutine; created via
  :meth:`Simulator.spawn`.
* Awaitables yielded by processes: :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.AnyOf`,
  :class:`~repro.sim.events.AllOf`.
* :class:`~repro.sim.resources.Store` — unbounded FIFO hand-off between
  processes.
* :class:`~repro.sim.rng.RngStream` — named, seeded random streams.
* :class:`~repro.sim.params.SimParams` — calibrated latency/bandwidth
  constants shared by the whole substrate.
"""

from repro.sim.engine import (GuardExceeded, Simulator, SimulationError,
                              TieAudit)
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.params import SimParams
from repro.sim.process import Process
from repro.sim.resources import Store
from repro.sim.rng import RngRegistry, RngStream
from repro.sim.timeunits import MICROS, MILLIS, SECONDS

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "GuardExceeded",
    "MICROS",
    "MILLIS",
    "Process",
    "RngRegistry",
    "RngStream",
    "SECONDS",
    "SimParams",
    "SimulationError",
    "Simulator",
    "Store",
    "TieAudit",
    "Timeout",
]
