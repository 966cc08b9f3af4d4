"""Spec expansion: canonical ordering, run_id identity, validation."""

import pytest

from repro.fleet.spec import ExperimentSpec, format_params


def make_spec(**kwargs):
    base = dict(name="exp", scenario="drill-healthy",
                grid={"b": [1, 2], "a": [10]}, seeds=[0, 1])
    base.update(kwargs)
    return ExperimentSpec(**base)


class TestExpansion:
    def test_cartesian_product_times_seeds(self):
        units = make_spec().expand()
        assert len(units) == 2 * 1 * 2

    def test_axes_sorted_values_declared_order(self):
        ids = [u.run_id for u in make_spec().expand()]
        assert ids == [
            "exp/a=10,b=1/s0", "exp/a=10,b=1/s1",
            "exp/a=10,b=2/s0", "exp/a=10,b=2/s1",
        ]

    def test_run_id_independent_of_grid_declaration_order(self):
        forward = make_spec(grid={"a": [10], "b": [1, 2]}).expand()
        reverse = make_spec(grid={"b": [1, 2], "a": [10]}).expand()
        assert [u.run_id for u in forward] == [u.run_id for u in reverse]

    def test_empty_grid_one_unit_per_seed(self):
        units = make_spec(grid={}, seeds=[7]).expand()
        assert [u.run_id for u in units] == ["exp/-/s7"]
        assert units[0].params_dict == {}

    def test_unit_carries_spec_budgets(self):
        unit = make_spec(timeout_s=9.0, max_events=123).expand()[0]
        assert (unit.timeout_s, unit.max_events) == (9.0, 123)

    def test_as_task_round_trips_params(self):
        unit = make_spec().expand()[0]
        task = unit.as_task()
        assert task["params"] == unit.params_dict
        assert task["run_id"] == unit.run_id


class TestValidation:
    def test_rejects_slash_in_name(self):
        with pytest.raises(ValueError):
            make_spec(name="a/b")

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            make_spec(seeds=[])

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            make_spec(grid={"a": []})

    def test_rejects_non_scalar_grid_values(self):
        with pytest.raises(TypeError):
            make_spec(grid={"a": [[1, 2]]})


class TestFormatParams:
    def test_sorted_and_typed(self):
        slug = format_params({"z": 1, "a": True, "m": "x", "f": 1.5})
        assert slug == "a=true,f=1.5,m=x,z=1"

    def test_bool_not_rendered_as_int(self):
        assert format_params({"fc": False}) == "fc=false"
