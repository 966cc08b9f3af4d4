"""Sec. VII-F, experience 3 — avoid continuous physical memory.

"We evaluate three modes (non-continuous, continuous and hugepage) and the
results show that the non-continuous mode has comparable performance and
less fragmentations."  We compare allocation cost and failure behaviour of
the three host-memory modes under fragmentation pressure.
"""

import pytest

from .conftest import emit


@pytest.mark.figure("sec7f-memory-modes")
def test_sec7f_memory_modes(figure_runs):
    rows = {run["params"]["mode"]: run["metrics"] for run in figure_runs}
    lines = [f"{'mode':<15} {'fresh(us)':>10} {'frag(us)':>9} "
             f"{'slowdown':>9} {'64MB fails':>11} {'reclaims':>9}"]
    for name, row in rows.items():
        lines.append(
            f"{name:<15} {row['fresh_us']:>10.1f} "
            f"{row['fragmented_us']:>9.1f} {row['slowdown']:>9.2f} "
            f"{row['large_alloc_failures']:>11} {row['reclaims']:>9}")
    lines.append("")
    lines.append("paper: non-continuous has comparable performance and "
                 "fewer fragmentation problems; continuous triggers kernel "
                 "reclaim under fragmentation")
    emit("sec7f_memory_modes", lines)

    anonymous = rows["non-continuous"]
    contiguous = rows["continuous"]
    hugepage = rows["hugepage"]
    # Non-continuous allocation cost is insensitive to fragmentation.
    assert anonymous["slowdown"] < 1.05
    # Continuous slows down badly and fails under fragmentation.
    assert contiguous["slowdown"] > 1.5
    assert contiguous["large_alloc_failures"] > 0
    assert contiguous["reclaims"] > 0
    # Non-continuous and hugepage never fail.
    assert anonymous["large_alloc_failures"] == 0
    assert hugepage["large_alloc_failures"] == 0