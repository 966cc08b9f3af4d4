"""The percentile helpers shared by the tracer, fleet and tools."""

from __future__ import annotations

import math
from typing import Sequence


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an **already sorted** sequence
    (``q`` in [0, 1]).

    Integer rank arithmetic via ``math.ceil`` — no interpolation, so the
    result is always an actual observed value and never depends on float
    summation order.  This is THE percentile routine: the trace fold
    (:func:`repro.analysis.tracing.analyze`, behind both the xr_trace CLI
    and every fleet run's ``trace`` section), the ``traced-rpc`` and
    ``ctrl-plane`` scenarios, the fleet aggregator, the serving window
    engine and tenants and the Fig. 12 benchmark (through
    :func:`percentile`) and the ``bench/`` ledger all delegate here, so
    their numbers are comparable by construction.
    """
    if not ordered:
        raise ValueError("percentile of empty sequence")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def percentile(values: Sequence[float], q: float) -> float:
    """:func:`nearest_rank` of unsorted ``values`` (``q`` in [0, 1])."""
    return nearest_rank(sorted(values), q)
