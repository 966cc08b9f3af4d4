"""Latency/statistics helpers shared by the tracer, monitor and tools."""

from __future__ import annotations

import math
from typing import Dict, Sequence


class LatencyHistogram:
    """Log-bucketed latency histogram with percentile queries.

    Buckets are powers of √2 over nanoseconds, giving ~3% resolution with a
    few dozen integers — cheap enough to keep per channel.
    """

    _BASE = math.sqrt(2)

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.min_ns: int = 0
        self.max_ns: int = 0

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency: {latency_ns}")
        index = 0 if latency_ns < 1 else int(
            math.log(latency_ns, self._BASE))
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        if self.count == 1:
            self.min_ns = self.max_ns = latency_ns
        else:
            self.min_ns = min(self.min_ns, latency_ns)
            self.max_ns = max(self.max_ns, latency_ns)

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (0 < p ≤ 100)."""
        if not 0 < p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        if self.count == 0:
            return 0.0
        target = math.ceil(self.count * p / 100)
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= target:
                return self._BASE ** (index + 0.5)
        return float(self.max_ns)  # pragma: no cover - target ≤ count

    def merge(self, other: "LatencyHistogram") -> None:
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        if other.count:
            if self.count == 0:
                self.min_ns, self.max_ns = other.min_ns, other.max_ns
            else:
                self.min_ns = min(self.min_ns, other.min_ns)
                self.max_ns = max(self.max_ns, other.max_ns)
        self.count += other.count


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an **already sorted** sequence
    (``q`` in [0, 1]).

    Integer rank arithmetic via ``math.ceil`` — no interpolation, so the
    result is always an actual observed value and never depends on float
    summation order.  This is THE percentile routine: the fleet
    aggregator, the xr_trace CLI and the serving window engine all
    delegate here, so their numbers are comparable by construction.
    """
    if not ordered:
        raise ValueError("percentile of empty sequence")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def percentile(values: Sequence[float], q: float) -> float:
    """:func:`nearest_rank` of unsorted ``values`` (``q`` in [0, 1])."""
    return nearest_rank(sorted(values), q)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def jitter_index(values: Sequence[float]) -> float:
    """Coefficient of variation — the benches' jitter measure (Fig. 12)."""
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    if mu == 0:
        return 0.0
    variance = sum((v - mu) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(variance) / mu
