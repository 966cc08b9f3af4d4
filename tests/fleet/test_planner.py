"""Planner: canonical order, worker-count independence."""

import pytest

from repro.fleet.planner import plan
from repro.fleet.spec import ExperimentSpec


def two_specs():
    return [
        ExperimentSpec(name="beta", scenario="drill-healthy",
                       grid={"x": [1, 2, 3]}, seeds=[0, 1]),
        ExperimentSpec(name="alpha", scenario="drill-healthy",
                       grid={"y": [4, 5]}, seeds=[0]),
    ]


class TestPlan:
    def test_plan_sorted_by_experiment_name(self):
        units = plan(two_specs())
        names = [u.experiment for u in units]
        assert names == sorted(names)
        assert len(units) == 6 + 2

    def test_duplicate_experiment_name_rejected(self):
        spec = two_specs()[0]
        with pytest.raises(ValueError):
            plan([spec, spec])
