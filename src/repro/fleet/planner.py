"""Deterministic planning: the canonical run-unit order.

The planner turns specs into the one total order every part of the fleet
agrees on.  **Worker-count independence** is the property that matters:
the plan (unit identity *and* order) is a pure function of the specs.
``--jobs 1`` and ``--jobs 8`` dispatch the same units in the same order;
only completion interleaving differs, and the store/aggregator
canonicalize that away.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.fleet.spec import ExperimentSpec, RunUnit

__all__ = ["plan"]


def plan(specs: Sequence[ExperimentSpec]) -> List[RunUnit]:
    """Expand ``specs`` into the canonical run-unit order.

    Units are ordered by (experiment name, expansion order); duplicate
    experiment names or run ids are an error — silent collisions would
    make records overwrite each other in the store.
    """
    seen_specs: Dict[str, str] = {}
    units: List[RunUnit] = []
    for spec in sorted(specs, key=lambda s: s.name):
        if spec.name in seen_specs:
            raise ValueError(f"duplicate experiment name {spec.name!r}")
        seen_specs[spec.name] = spec.scenario
        units.extend(spec.expand())
    seen_ids = set()
    for unit in units:
        if unit.run_id in seen_ids:
            raise ValueError(f"duplicate run id {unit.run_id!r}")
        seen_ids.add(unit.run_id)
    return units
