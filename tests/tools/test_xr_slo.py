"""The xr_slo CLI over a synthetic windows.jsonl."""

import json

import pytest

from repro.tools.xr_slo import (load_window_rows, main, summarize,
                                tenant_tables)


def _row(run_id="exp/p=1/s0", tenant="A", window=0, stable=True,
         offered=100, completed=100, p99_us=50.0, slo_ok=True):
    return {"run_id": run_id, "tenant": tenant, "window": window,
            "start_ms": window * 10.0, "stable": stable,
            "offered": offered, "completed": completed,
            "offered_rps": offered * 100.0, "achieved_rps": completed * 100.0,
            "p50_us": p99_us / 2, "p99_us": p99_us, "max_us": p99_us,
            "slo_ok": slo_ok}


@pytest.fixture
def windows_file(tmp_path):
    rows = [
        _row(window=0, stable=False),
        _row(window=1),
        _row(window=2, p99_us=900.0, slo_ok=False),
        _row(window=3, stable=False),
        _row(tenant="B", window=0, stable=False),
        _row(tenant="B", window=1, offered=10, completed=10),
        _row(tenant="B", window=2, offered=0, completed=0, p99_us=0.0),
    ]
    path = tmp_path / "windows.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows),
                    encoding="utf-8")
    return path


def test_load_and_group(windows_file):
    rows = load_window_rows(str(windows_file))
    tables = tenant_tables(rows)
    assert set(tables) == {("exp/p=1/s0", "A"), ("exp/p=1/s0", "B")}
    assert [row["window"] for row in tables[("exp/p=1/s0", "A")]] == \
        [0, 1, 2, 3]


def test_summarize_counts_judged_windows_only(windows_file):
    tables = tenant_tables(load_window_rows(str(windows_file)))
    a = summarize(tables[("exp/p=1/s0", "A")])
    assert a["windows_stable"] == 2
    assert a["slo_attainment"] == 0.5
    assert a["slo_ok"] == 0
    assert a["worst_p99_us"] == 900.0
    b = summarize(tables[("exp/p=1/s0", "B")])
    assert b["slo_attainment"] == 1.0        # idle window not judged
    assert b["slo_ok"] == 1


def test_cli_text_and_markdown(windows_file, capsys):
    assert main([str(windows_file)]) == 0
    out = capsys.readouterr().out
    assert "xr-slo summary" in out
    assert "exp/p=1/s0" in out

    assert main([str(windows_file.parent), "--markdown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| run | tenant |")
    assert "| FAIL |" in out and "| pass |" in out


def test_cli_windows_detail_and_json(windows_file, capsys):
    assert main([str(windows_file), "--windows", "exp/p=1/s0"]) == 0
    out = capsys.readouterr().out
    assert "tenant A" in out and "tenant B" in out

    assert main([str(windows_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["summaries"]) == 2
    assert payload["summaries"][0]["tenant"] == "A"


def test_cli_errors(tmp_path, capsys):
    assert main([str(tmp_path / "missing.jsonl")]) == 2
    empty = tmp_path / "windows.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main([str(tmp_path)]) == 1


def assert_unreadable(path, capsys):
    """Exit 2, nothing on stdout, one ``xr-slo: <path>: ...`` line."""
    assert main([str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"xr-slo: {path}: ")
    assert err.count("\n") == 1


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "windows.jsonl"
    path.write_bytes(json.dumps(_row()).encode() + b"\n\xff\xfe\n")
    assert_unreadable(path, capsys)


def test_non_integer_window_exits_2(tmp_path, capsys):
    path = tmp_path / "windows.jsonl"
    bad = {**_row(window=1), "window": "first"}
    path.write_text("".join(json.dumps(row) + "\n"
                            for row in (_row(window=0), bad)),
                    encoding="utf-8")
    assert_unreadable(path, capsys)


def test_torn_tail_tolerated(windows_file):
    with open(windows_file, "a", encoding="utf-8") as handle:
        handle.write('{"run_id": "exp/p=1/s0", "tenant": "A", "window": 9')
    rows = load_window_rows(str(windows_file))
    assert len(rows) == 7
