"""Aggregator: deterministic stats, wall-clock exclusion, missing runs."""

import pytest

from repro.analysis.stats import percentile
from repro.fleet.aggregate import (aggregate_records, aggregate_tables,
                                   metric_stats)
from repro.fleet.spec import ExperimentSpec
from repro.fleet.store import canonical_json


def units_for(grid=None, seeds=(0, 1)):
    return ExperimentSpec(name="exp", scenario="drill-healthy",
                          grid=grid if grid is not None else {"x": [1, 2]},
                          seeds=list(seeds)).expand()


def term(unit, status="ok", metrics=None, wall_s=0.0, **extra):
    record = {
        "run_id": unit.run_id, "experiment": unit.experiment,
        "scenario": unit.scenario, "params": unit.params_dict,
        "seed": unit.seed, "status": status, "reason": "",
        "metrics": metrics or {}, "digest": f"d-{unit.run_id}",
        "events": 10, "tie_anomalies": 0, "invariant_violations": 0,
        "monitor": {}, "wall_s": wall_s,
    }
    record.update(extra)
    return record


class TestPercentile:
    def test_nearest_rank_is_an_observed_value(self):
        values = [5.0, 1.0, 3.0]
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert percentile(values, q) in values

    def test_known_ranks(self):
        values = list(range(1, 11))      # 1..10
        assert percentile(values, 0.50) == 5
        assert percentile(values, 0.90) == 9
        assert percentile(values, 1.00) == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_metric_stats_shape(self):
        stats = metric_stats([2.0, 4.0])
        assert stats == {"n": 2, "mean": 3.0, "p50": 2.0, "p90": 4.0,
                         "min": 2.0, "max": 4.0}


class TestAggregate:
    def test_wall_clock_fields_never_enter_aggregate(self):
        units = units_for()
        terminal = {u.run_id: term(u, wall_s=123.456, worker=9)
                    for u in units}
        text = canonical_json(aggregate_records(units, terminal))
        assert "wall_s" not in text
        assert "123.456" not in text
        assert '"worker"' not in text

    def test_aggregate_bytes_ignore_record_arrival_order(self):
        units = units_for()
        terminal = {u.run_id: term(u, metrics={"m": float(u.seed)})
                    for u in units}
        shuffled = dict(reversed(list(terminal.items())))
        assert canonical_json(aggregate_records(units, terminal)) \
            == canonical_json(aggregate_records(units, shuffled))

    def test_missing_runs_reported_not_dropped(self):
        units = units_for()
        terminal = {units[0].run_id: term(units[0])}
        aggregate = aggregate_records(units, terminal)
        assert aggregate["totals"]["runs"] == len(units)
        assert aggregate["totals"]["missing"] == len(units) - 1
        assert aggregate["runs"][units[-1].run_id]["status"] == "missing"

    def test_failed_runs_excluded_from_metric_stats(self):
        units = units_for(grid={"x": [1]}, seeds=(0, 1))
        terminal = {
            units[0].run_id: term(units[0], metrics={"m": 1.0}),
            units[1].run_id: term(units[1], status="failed",
                                  metrics={"m": 999.0}),
        }
        group = aggregate_records(units, terminal)["experiments"]["exp"]
        stats = group["x=1"]["metrics"]["m"]
        assert stats["n"] == 1 and stats["max"] == 1.0

    def test_bool_metrics_not_averaged(self):
        units = units_for(grid={"x": [1]}, seeds=(0,))
        terminal = {units[0].run_id: term(units[0],
                                          metrics={"flag": True, "m": 2.0})}
        metrics = aggregate_records(units, terminal)["experiments"]["exp"][
            "x=1"]["metrics"]
        assert "flag" not in metrics and "m" in metrics

    def test_tables_render_every_experiment(self):
        units = units_for()
        terminal = {u.run_id: term(u, metrics={"m": 1.5}) for u in units}
        text = aggregate_tables(aggregate_records(units, terminal))
        assert "===== exp =====" in text
        assert "x=1" in text and "x=2" in text
        assert "totals:" in text
