"""Time-unit helpers.

All simulated time in this project is an integer count of nanoseconds.  These
constants and converters keep call sites legible (``5 * MICROS`` rather than
``5000``).
"""

from __future__ import annotations

#: One nanosecond (the base tick).
NANOS = 1
#: Nanoseconds per microsecond.
MICROS = 1_000
#: Nanoseconds per millisecond.
MILLIS = 1_000_000
#: Nanoseconds per second.
SECONDS = 1_000_000_000


def us(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return int(round(value * MICROS))


def ns_to_us(value: int) -> float:
    """Convert integer nanoseconds to float microseconds."""
    return value / MICROS
