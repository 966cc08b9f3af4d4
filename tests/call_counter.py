"""Python and C function calls, counted with ``sys.setprofile``.

A call count is exact: the same code path makes the same calls in every
process and under every hash seed, and host time follows calls, not
events (EXPERIMENTS.md, "Events are not the host cost").  The count
weighs a dataclass ``__init__`` the same as the engine's fire loop, so
it is a count, not a time.

:class:`CallCounter` is what ``tests/xrdma/test_call_budget.py`` holds
the eager round trip to.  Run as a script, it prints one line per bench
workload: the events, the Python and C calls of one quick pass at seed 1,
and calls per completed operation::

    python -m tests.call_counter rpc-pingpong incast-bulk
"""

from __future__ import annotations

import sys
from typing import List, Optional


class CallCounter:
    """Counts ``call`` (Python) and ``c_call`` (C) profile events while
    the ``with`` block runs."""

    def __init__(self) -> None:
        self.python = 0
        self.c = 0

    def _count(self, frame, event: str, arg) -> None:
        if event == "call":
            self.python += 1
        elif event == "c_call":
            self.c += 1

    def __enter__(self) -> "CallCounter":
        sys.setprofile(self._count)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.setprofile(None)


def main(argv: Optional[List[str]] = None) -> int:
    from bench.workloads import run_pass

    for workload in (sys.argv[1:] if argv is None else argv):
        with CallCounter() as counter:
            result = run_pass(workload, 1, "quick")
        total = counter.python + counter.c
        print(workload, "events", result.events,
              "python_calls", counter.python, "c_calls", counter.c,
              "calls_per_op", round(total / max(result.completed, 1), 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
