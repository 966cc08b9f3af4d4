"""Declarative experiment specifications and their expansion.

An :class:`ExperimentSpec` names a scenario callable by registry name
(workers re-resolve it by name, so specs stay picklable and
serializable), a seed list, and a parameter grid.  Expansion is the
cartesian product of grid axes × seeds, in a canonical order:

* axes sorted by name,
* values in their declared order,
* seeds in their declared order.

Every resulting :class:`RunUnit` carries a ``run_id`` derived purely from
the spec — ``<experiment>/<axis=value,...>/s<seed>`` — so unit identity
never depends on worker count, dispatch order, or wall time.  That is the
root of the jobs-invariance guarantee: the aggregate is keyed by run_id,
and run_ids are a pure function of the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["ExperimentSpec", "RunUnit", "format_params"]


def _format_value(value: Any) -> str:
    """Compact, unambiguous scalar rendering for run ids."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    raise TypeError(
        f"grid values must be scalars (bool/int/float/str), got "
        f"{type(value).__name__}: {value!r}")


def format_params(params: Mapping[str, Any]) -> str:
    """Canonical ``axis=value,...`` slug (axes sorted by name)."""
    return ",".join(f"{key}={_format_value(params[key])}"
                    for key in sorted(params))


@dataclass(frozen=True)
class RunUnit:
    """One independent simulation: a scenario at a grid point and a seed."""

    run_id: str
    experiment: str
    scenario: str
    params: Tuple[Tuple[str, Any], ...]     #: sorted, hashable param items
    seed: int
    timeout_s: float
    max_events: Optional[int]

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def as_task(self) -> Dict[str, Any]:
        """The picklable message handed to a worker."""
        return {
            "run_id": self.run_id,
            "experiment": self.experiment,
            "scenario": self.scenario,
            "params": self.params_dict,
            "seed": self.seed,
            "timeout_s": self.timeout_s,
            "max_events": self.max_events,
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """A scenario swept over a parameter grid and a seed list.

    ``grid`` maps axis name → list of scalar values; an empty grid means a
    single run per seed.  ``timeout_s`` is the per-run wall-clock budget
    the pool supervisor enforces (a worker past its deadline is killed);
    ``max_events`` additionally arms the in-worker engine guard so most
    runaways die as recorded :class:`~repro.sim.engine.GuardExceeded`
    failures instead of kills.  Each run executes once: a seeded run that
    failed would fail the same way again.
    """

    name: str
    scenario: str
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seeds: Sequence[int] = (0,)
    timeout_s: float = 120.0
    max_events: Optional[int] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ValueError(f"bad experiment name {self.name!r}")
        if not self.seeds:
            raise ValueError(f"{self.name}: empty seed list")
        for axis, values in self.grid.items():
            if not values:
                raise ValueError(f"{self.name}: axis {axis!r} has no values")
            for value in values:
                _format_value(value)        # raises on non-scalars

    def expand(self) -> List[RunUnit]:
        """All run units, in the canonical (grid × seed) order."""
        axes = sorted(self.grid)
        units: List[RunUnit] = []
        value_lists = [list(self.grid[axis]) for axis in axes]
        for combo in product(*value_lists) if axes else [()]:
            params = dict(zip(axes, combo))
            slug = format_params(params) or "-"
            for seed in self.seeds:
                units.append(RunUnit(
                    run_id=f"{self.name}/{slug}/s{seed}",
                    experiment=self.name,
                    scenario=self.scenario,
                    params=tuple(sorted(params.items())),
                    seed=seed,
                    timeout_s=self.timeout_s,
                    max_events=self.max_events,
                ))
        return units

    def as_dict(self) -> Dict[str, Any]:
        """JSON form persisted into the sweep plan."""
        return {
            "name": self.name,
            "scenario": self.scenario,
            "grid": {axis: list(values)
                     for axis, values in sorted(self.grid.items())},
            "seeds": list(self.seeds),
            "timeout_s": self.timeout_s,
            "max_events": self.max_events,
            "description": self.description,
        }
