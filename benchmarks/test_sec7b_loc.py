"""Sec. VII-B — programming simplification: lines of code.

The paper: a ping-pong takes ≥200 LOC on libverbs (≈50 on sockets); the
Pangu data plane took ~2000 LOC of native RDMA versus ~40 LOC of X-RDMA
APIs.  We count the real lines of this repository's two example programs,
which implement the same ping-pong on raw verbs and on X-RDMA.
"""

import pathlib

from .conftest import emit

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def count_effective_loc(path: pathlib.Path) -> int:
    """Non-blank, non-comment, non-docstring lines."""
    loc = 0
    in_docstring = False
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if in_docstring:
            if line.endswith('"""') or line.endswith("'''"):
                in_docstring = False
            continue
        if line.startswith('"""') or line.startswith("'''"):
            if not (line.endswith('"""') and len(line) > 3) \
                    and not (line.endswith("'''") and len(line) > 3):
                in_docstring = True
            continue
        if line.startswith("#"):
            continue
        loc += 1
    return loc


def test_sec7b_loc_comparison():
    raw_loc = count_effective_loc(EXAMPLES / "pingpong_raw_verbs.py")
    xrdma_loc = count_effective_loc(EXAMPLES / "quickstart.py")
    lines = [
        f"{'program':<28} {'effective LOC':>14}",
        f"{'ping-pong on raw verbs':<28} {raw_loc:>14}",
        f"{'ping-pong on X-RDMA':<28} {xrdma_loc:>14}",
        "",
        f"ratio: {raw_loc / xrdma_loc:.1f}x "
        f"(paper: ~200 LOC verbs vs tens of LOC X-RDMA; "
        f"Pangu: 2000 vs ~40)",
    ]
    emit("sec7b_loc", lines)

    # The paper's qualitative claim: several-fold code reduction.
    assert raw_loc > 2.5 * xrdma_loc
    assert xrdma_loc < 80
