"""Text rendering for monitor series — the dashboards of Figs. 3/8/11/12.

Production X-RDMA feeds a graphical monitoring system; here the examples
render the same series as unicode sparklines so a terminal shows the
shapes the paper's screenshots show.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

_BARS = "▁▂▃▄▅▆▇█"
#: sparkline characters: longer series are averaged down to this
_WIDTH = 60


def sparkline(values: Sequence[float]) -> str:
    """Render a series as a one-line unicode sparkline, at most
    ``_WIDTH`` characters wide."""
    if not values:
        return ""
    values = list(values)
    if len(values) > _WIDTH:
        # Downsample by averaging fixed-size chunks.
        chunk = len(values) / _WIDTH
        values = [
            sum(values[int(i * chunk):max(int((i + 1) * chunk),
                                          int(i * chunk) + 1)])
            / max(len(values[int(i * chunk):max(int((i + 1) * chunk),
                                                int(i * chunk) + 1)]), 1)
            for i in range(_WIDTH)
        ]
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    return "".join(
        _BARS[min(int((value - low) / span * (len(_BARS) - 1)),
                  len(_BARS) - 1)]
        for value in values)


def series_panel(title: str, samples: List[Tuple[int, float]]) -> str:
    """A labelled sparkline with min/max annotations."""
    if not samples:
        return f"{title}: (no samples)"
    values = [value for _, value in samples]
    line = sparkline(values)
    t0, t1 = samples[0][0], samples[-1][0]
    return (f"{title} [{t0 / 1e6:.0f}..{t1 / 1e6:.0f} ms]\n"
            f"  {line}\n"
            f"  min={min(values):.4g} max={max(values):.4g} "
            f"last={values[-1]:.4g}")

