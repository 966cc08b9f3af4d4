"""A plain ``pytest`` run must never dirty ``benchmarks/results/``.

The committed tables are regenerated deliberately (``XR_WRITE_RESULTS=1``)
or by the fleet, not as a side effect of every benchmark invocation.
``emit()`` is gated (tested here); every other writer is caught by the
session fixture ``results_dir_untouched`` in ``conftest.py``.
"""

from benchmarks import conftest as bench_conftest


class TestEmitGating:
    def test_emit_is_print_only_by_default(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.delenv("XR_WRITE_RESULTS", raising=False)
        monkeypatch.setattr(bench_conftest, "RESULTS_DIR",
                            tmp_path / "results")
        bench_conftest.emit("probe", ["row 1", "row 2"])
        assert "===== probe =====" in capsys.readouterr().out
        assert not (tmp_path / "results").exists()

    def test_emit_writes_when_opted_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XR_WRITE_RESULTS", "1")
        monkeypatch.setattr(bench_conftest, "RESULTS_DIR",
                            tmp_path / "results")
        bench_conftest.emit("probe", ["row 1", "row 2"])
        assert (tmp_path / "results" / "probe.txt").read_text() \
            == "row 1\nrow 2\n"

    def test_emit_requires_exactly_1(self, tmp_path, monkeypatch):
        # "true"/"yes" are not the contract; only "1" opts in.
        monkeypatch.setenv("XR_WRITE_RESULTS", "yes")
        monkeypatch.setattr(bench_conftest, "RESULTS_DIR",
                            tmp_path / "results")
        bench_conftest.emit("probe", ["row"])
        assert not (tmp_path / "results").exists()


def test_results_snapshot_sees_every_kind_of_write(tmp_path, monkeypatch):
    """What the session fixture ``results_dir_untouched`` asserts on: an
    added, a changed and a deleted table must each be reported."""
    monkeypatch.setattr(bench_conftest, "RESULTS_DIR", tmp_path)
    (tmp_path / "kept.txt").write_text("row\n")
    (tmp_path / "doomed.txt").write_text("row\n")
    before = bench_conftest.results_snapshot()
    assert bench_conftest.results_changed_since(before) == []
    (tmp_path / "added.txt").write_text("row\n")
    (tmp_path / "kept.txt").write_text("row 2\n")
    (tmp_path / "doomed.txt").unlink()
    assert bench_conftest.results_changed_since(before) == \
        ["added.txt", "doomed.txt", "kept.txt"]
