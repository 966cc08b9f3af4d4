"""Result store: JSONL durability, side artifacts, plan reads, canonical
bytes."""

import json

from repro.fleet.spec import ExperimentSpec
from repro.fleet.store import ResultStore, canonical_json, read_jsonl


def spec():
    return ExperimentSpec(name="exp", scenario="drill-healthy",
                          grid={"x": [1, 2]}, seeds=[0])


def record(run_id, status="ok"):
    return {"run_id": run_id, "status": status}


class TestStore:
    def test_begin_persists_plan(self, tmp_path):
        store = ResultStore(tmp_path / "sweep")
        units = spec().expand()
        store.begin([spec()], units)
        store.close()
        plan = store.load_plan()
        assert plan["units"] == [u.run_id for u in units]
        assert plan["specs"][0]["name"] == "exp"

    def test_append_then_reload_in_order(self, tmp_path):
        store = ResultStore(tmp_path / "sweep")
        store.begin([spec()], spec().expand())
        store.append(record("exp/x=1/s0"))
        store.append(record("exp/x=2/s0", status="failed"))
        store.close()
        statuses = [r["status"] for r in store.load_records()]
        assert statuses == ["ok", "failed"]

    def test_torn_tail_is_tolerated(self, tmp_path):
        store = ResultStore(tmp_path / "sweep")
        store.begin([spec()], spec().expand())
        store.append(record("exp/x=1/s0"))
        store.close()
        with open(store.runs_path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "exp/x=2/s0", "status": "ok"')
        assert len(store.load_records()) == 1

    def test_traces_split_into_own_artifact(self, tmp_path):
        store = ResultStore(tmp_path / "sweep")
        store.begin([spec()], spec().expand())
        traced = record("exp/x=1/s0")
        traced["trace"] = {"records": 2, "completed": 2}
        traced["traces"] = [{"trace_id": 1, "total_ns": 10},
                            {"trace_id": 2, "total_ns": 20}]
        store.append(traced)
        store.append(record("exp/x=2/s0"))      # untraced record: no lines
        store.close()
        # The run record keeps the rollup but not the per-trace bulk.
        records = store.load_records()
        assert records[0]["trace"] == {"records": 2, "completed": 2}
        assert "traces" not in records[0]
        # traces.jsonl carries one stamped line per trace.
        traces = list(read_jsonl(store.traces_path))
        assert [t["trace_id"] for t in traces] == [1, 2]
        assert all(t["run_id"] == "exp/x=1/s0" for t in traces)
        assert all(set(t) == {"trace_id", "total_ns", "run_id"}
                   for t in traces)

    def test_begin_clears_stale_traces(self, tmp_path):
        store = ResultStore(tmp_path / "sweep")
        store.begin([spec()], spec().expand())
        traced = record("exp/x=1/s0")
        traced["traces"] = [{"trace_id": 1}]
        store.append(traced)
        store.close()
        store.begin([spec()], spec().expand())  # fresh sweep, same dir
        store.close()
        assert not store.traces_path.exists()

    def test_append_reopens_after_close(self, tmp_path):
        # Appending after close must extend the log, never clobber it.
        store = ResultStore(tmp_path / "sweep")
        store.begin([spec()], spec().expand())
        store.append(record("exp/x=1/s0"))
        store.close()
        store.append(record("exp/x=2/s0"))
        store.close()
        assert len(store.load_records()) == 2


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": {"z": 2, "y": 3}})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 1, "a": {"z": 2, "y": 3}}

    def test_identical_payloads_identical_bytes(self):
        one = canonical_json({"k": [1, 2], "j": "v"})
        two = canonical_json({"j": "v", "k": [1, 2]})
        assert one == two
