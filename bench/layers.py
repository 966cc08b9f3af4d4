"""Host-time attribution: which layer a profiled function belongs to.

A layer is a package (or top-level module) of ``src/repro``; ``bench`` is
this directory and ``python`` is everything else (stdlib, numpy, C
builtins).  The list is explicit on purpose: a new package under
``src/repro`` makes :func:`layer_of` raise — and the smoke test fail —
rather than fall into a catch-all bucket.
"""

from __future__ import annotations

import cProfile
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
_REPRO = str(ROOT / "src" / "repro") + os.sep
_BENCH = str(ROOT / "bench") + os.sep

LAYERS = ("sim", "topology", "switching", "net", "rnic", "transport",
          "verbs", "memory", "ctrlplane", "xrdma", "workloads", "apps",
          "serving", "analysis", "tools", "fleet", "baselines", "cluster",
          "bench", "python")


def layer_of(filename: str) -> str:
    """The layer owning ``filename`` (a code object's ``co_filename``)."""
    if filename.startswith(_REPRO):
        head = filename[len(_REPRO):].split(os.sep, 1)[0]
        # src/repro/cluster.py and the package __init__ assemble clusters
        layer = "cluster" if head in ("cluster.py", "__init__.py") else head
        if layer not in LAYERS:
            raise KeyError(f"{filename}: src/repro/{head} has no layer in "
                           f"bench/layers.py LAYERS")
        return layer
    if filename.startswith(_BENCH):
        return "bench"
    return "python"


def profile_layers(fn: Callable[[], Any]
                   ) -> Tuple[Any, Dict[str, Dict[str, float]], float]:
    """Run ``fn`` under cProfile; returns its result, the per-layer table
    (each function's self time and call count summed into its file's
    layer) and the wall time of the profiled region."""
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    profiled_s = time.perf_counter() - started
    for entry in profiler.getstats():
        code = entry.code
        layer = (layer_of(code.co_filename) if hasattr(code, "co_filename")
                 else "python")            # C builtins carry a str name
        table[layer]["self_s"] += entry.inlinetime
        table[layer]["calls"] += entry.callcount
    return result, table, profiled_s
