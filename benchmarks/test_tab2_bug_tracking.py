"""Table II — bug classes and the mechanism that catches each.

| bug                   | tracking method              |
|-----------------------|------------------------------|
| heavy incast          | tracing, XR-Stat             |
| broken network        | keepAlive, XR-Ping           |
| jitter / long tail    | tracing, XR-Perf             |
| bugs hard to reproduce| Filter                       |
| memory leak or crash  | isolated memory cache        |

Each scenario injects the bug and asserts the designated mechanism
actually observes it.
"""

import pytest

from .conftest import emit


@pytest.mark.figure("tab2-bug-tracking")
def test_tab2_bug_tracking_matrix(figure_runs):
    rows = [(run["metrics"]["bug"], run["metrics"]["method"],
             run["metrics"]["caught"]) for run in figure_runs]
    lines = [f"{'bug type':<24} {'tracking method':<28} {'caught':>7}"]
    for bug, method, caught in rows:
        lines.append(f"{bug:<24} {method:<28} {str(caught):>7}")
    emit("tab2_bug_tracking", lines)

    for bug, method, caught in rows:
        assert caught, f"{method} failed to catch {bug}"
