"""Production-shaped load profiles (Figs. 3, 11, 12).

The paper's monitoring shows traffic alternating between saturated and
unsaturated (diurnal shape, Fig. 3) and short multi-x bursts under
promotion pressure (Fig. 12).  These helpers produce (time, rate) knots the
application drivers interpolate.
"""

from __future__ import annotations

import math
from typing import List, Tuple

Knot = Tuple[int, float]


def diurnal_profile(duration_ns: int, period_ns: int, low: float,
                    high: float) -> List[Knot]:
    """Sinusoidal day/night alternation between ``low`` and ``high``,
    24 knots per period."""
    if duration_ns <= 0 or period_ns <= 0:
        raise ValueError("duration and period must be positive")
    if low > high:
        raise ValueError(f"low {low} > high {high}")
    step = max(1, period_ns // 24)
    knots = []
    t = 0
    while t <= duration_ns:
        phase = 2 * math.pi * (t % period_ns) / period_ns
        value = low + (high - low) * (0.5 - 0.5 * math.cos(phase))
        knots.append((t, value))
        t += step
    return knots


def burst_profile(duration_ns: int, base: float, burst: float,
                  burst_start_ns: int, burst_len_ns: int) -> List[Knot]:
    """Steady ``base`` rate with one rectangular burst to ``burst``
    (the Fig. 12 "throughput ×3 under pressure" shape)."""
    if not 0 <= burst_start_ns <= duration_ns:
        raise ValueError("burst must start within the trace")
    end = min(burst_start_ns + burst_len_ns, duration_ns)
    return [(0, base), (burst_start_ns, burst), (end, base),
            (duration_ns, base)]


def rate_at(knots: List[Knot], t_ns: int) -> float:
    """Step-interpolate the profile at ``t_ns``."""
    if not knots:
        raise ValueError("empty profile")
    current = knots[0][1]
    for knot_t, value in knots:
        if knot_t > t_ns:
            break
        current = value
    return current
