"""xr-lint: project-specific static analysis (the compile-time sanitizer).

The runtime invariant registry (:mod:`repro.analysis.invariants`) catches
protocol corruption while a scenario runs; this package catches the code
patterns that *cause* it before anything runs.  The entire repro band rests
on the discrete-event simulator being bit-reproducible — seeded
:class:`~repro.sim.rng.RngStream` draws and the heap's ``(time, priority,
sequence)`` tie-break — and on paired resource lifecycles (every
``MemCache.alloc`` freed, every QP destroyed or recycled).  Neither
property is enforced by Python itself, so xr-lint enforces them over the
AST.

Four rule families (plus the XR001 suppression audit):

* **determinism** — no host-state call (wall-clock read, module-global
  or unseeded RNG, host-blocking syscall; one table), no order that
  depends on object identity, no counter that outlives a run.
* **resource pairing** — flow-sensitive intra-function escape analysis
  over ``alloc``/``free`` and ``connect``/``close_channel`` pairs.
* **sim hygiene** — no generator annotated ``-> None``, no handler broad
  enough to swallow :class:`~repro.sim.engine.SimulationError`.
* **flow/interprocedural (XR4xx)** — yield-point races over the
  generator CFG and project call graph (:mod:`.flow`,
  :mod:`.callgraph`): stale guards across yields, resource escapes on
  handled-exception edges, unbounded yield loops, yields inside
  invariant-critical sections.

Suppress a finding with a trailing ``# xr-lint: disable=<rule>[,<rule>]``
comment on the offending line, or ``# xr-lint: disable-file=<rule>`` on a
line of its own for whole-file scope.  CLI: ``python -m
repro.tools.xr_lint``.
"""

from repro.analysis.lint.callgraph import CallGraph
from repro.analysis.lint.core import (Finding, LintRunner, Rule,
                                      all_rules, get_rule, register)
from repro.analysis.lint.reporter import render_gh, render_json, render_text

# Importing the rule modules populates the registry.
from repro.analysis.lint import rules_determinism  # noqa: F401,E402
from repro.analysis.lint import rules_resources    # noqa: F401,E402
from repro.analysis.lint import rules_sim          # noqa: F401,E402
from repro.analysis.lint import rules_flow         # noqa: F401,E402

__all__ = [
    "CallGraph", "Finding", "LintRunner", "Rule", "all_rules", "get_rule",
    "register", "render_gh", "render_json", "render_text",
]
