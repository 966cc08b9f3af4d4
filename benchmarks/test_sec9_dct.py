"""Sec. IX (Discussion) — DCT versus RC for massive connection counts.

The paper's position: "DCT can benefit massive connections to some extent
but DCT is not mature and stable enough in our tests."  We quantify both
halves on the simulated substrate:

* **benefit**: one DCI + cheap in-band sessions replace N full RC QPs —
  orders of magnitude less setup time and fewer NIC objects;
* **cost**: round-robin fan-out pays a drain+switch on every retarget,
  so per-message latency degrades versus dedicated RC connections.
"""

import pytest

from repro.fleet.figures import SEC9_PEERS as N_PEERS
from repro.fleet.figures import SEC9_ROUNDS as ROUNDS

from .conftest import emit


@pytest.mark.figure("sec9-dct-vs-rc")
def test_sec9_dct_vs_rc(figure_runs):
    rc, dct = (run["metrics"] for run in figure_runs)
    rc_setup, rc_latency, rc_qps = (
        rc[key] for key in ("setup_ns", "latency_ns", "nic_objects"))
    dc_setup, dc_latency, dc_objects, switches = (
        dct[key] for key in ("setup_ns", "latency_ns", "nic_objects",
                             "switches"))

    lines = [
        f"{'transport':<6} {'setup(ms)':>10} {'fanout lat(us)':>15} "
        f"{'NIC objects':>12}",
        f"{'RC':<6} {rc_setup / 1e6:>10.1f} {rc_latency / 1000:>15.2f} "
        f"{rc_qps:>12}",
        f"{'DCT':<6} {dc_setup / 1e6:>10.1f} {dc_latency / 1000:>15.2f} "
        f"{dc_objects:>12}",
        "",
        f"DCI retarget switches during fan-out: {switches}",
        "paper: DCT benefits massive connections to some extent, but is "
        "not mature/stable — setup wins, fan-out latency loses",
    ]
    emit("sec9_dct_vs_rc", lines)

    # The benefit: establishment collapses (no CM, no create_qp).
    assert dc_setup < rc_setup / 20
    # The cost: round-robin fan-out pays for every retarget.
    assert dc_latency > rc_latency
    assert switches >= (N_PEERS - 1) * ROUNDS - 1