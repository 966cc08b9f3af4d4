"""Time-unit helpers.

All simulated time in this project is an integer count of nanoseconds.  These
constants keep call sites legible (``5 * MICROS`` rather than ``5000``).
"""

from __future__ import annotations

#: Nanoseconds per microsecond.
MICROS = 1_000
#: Nanoseconds per millisecond.
MILLIS = 1_000_000
#: Nanoseconds per second.
SECONDS = 1_000_000_000
