"""Fault-injection drills: scenarios that attack the fleet itself.

The paper's operational lesson is that the orchestration layer must keep
working when individual runs do not.  These scenarios exercise exactly
that — each one misbehaves in a distinct way so the supervisor's crash
isolation, kill deadline and runaway guards can be proven by tests
(``tests/scenarios/test_fleet_failures.py``) rather than asserted in
prose.

All drills are deterministic: whether and how they misbehave depends
only on ``ctx.seed``, never on timing, so each yields the same one
record in every sweep.
"""

from __future__ import annotations

import os
from typing import Any, Dict

from repro.fleet.runner import RunContext
from repro.fleet.scenarios import scenario

__all__ = ["healthy", "raising", "crashing", "runaway"]


@scenario("drill-healthy")
def healthy(ctx: RunContext) -> Dict[str, Any]:
    """A trivially healthy run — control group for drill sweeps: ten
    1 µs ticks."""
    cluster = ctx.build_cluster(2)

    def ticker():
        for _ in range(10):
            yield cluster.sim.timeout(1000)
        return 10

    proc = cluster.sim.spawn(ticker())
    return {"ticks": cluster.sim.run_until_event(proc)}


@scenario("drill-raising")
def raising(ctx: RunContext) -> Dict[str, Any]:
    """Raises inside the worker: must become a reasoned ``failed`` record
    (the worker survives and takes the next task)."""
    ctx.build_cluster(1)
    raise RuntimeError(f"injected failure (seed {ctx.seed})")


@scenario("drill-crashing")
def crashing(ctx: RunContext) -> Dict[str, Any]:
    """Kills the worker process outright — no record, no goodbye.

    ``os._exit`` bypasses every ``finally``/``except`` in the worker, the
    closest simulation of a segfaulting or OOM-killed run the pure-Python
    fleet can produce.  The supervisor must notice the dead worker,
    synthesize a ``crashed`` record, and respawn.
    """
    del ctx
    os._exit(13)


@scenario("drill-runaway")
def runaway(ctx: RunContext) -> Dict[str, Any]:
    """An unbounded event churner: never returns on its own.

    With ``max_events`` set on the spec the in-engine guard turns it into
    a recorded failure; without, the supervisor's wall-clock deadline
    kills the worker (a ``timeout`` record).  Both paths are tested.
    """
    cluster = ctx.build_cluster(1)

    def spin():
        while True:
            yield cluster.sim.timeout(10)

    proc = cluster.sim.spawn(spin())
    cluster.sim.run_until_event(proc)
    return {}       # pragma: no cover — unreachable


@scenario("drill-hang")
def hang(ctx: RunContext) -> Dict[str, Any]:
    """Spins *outside* the engine loop, where no event-budget or in-loop
    wall guard can see it — only the supervisor's kill-based per-run
    deadline ends this one.  The worst-case runaway."""
    del ctx
    while True:     # pragma: no cover — terminated by SIGKILL
        pass
