"""The eager round trip's call budget (EXPERIMENTS.md, "A call budget
for the poll loop").

Two hosts ping-pong 256-B requests and 64-B responses over one channel.
After 200 warm-up round trips, the next 200 are run under a
``sys.setprofile`` counter; the Python calls per round trip, both hosts
and the engine together, must stay at or under :data:`BUDGET`.  The
count is exact, so a change that adds a call to the per-message path
fails here, and one that removes calls may lower the budget.
"""

import pytest

from repro.analysis import invariants
from tests.call_counter import CallCounter
from tests.conftest import build_cluster, run_process
from tests.xrdma.conftest import connect_pair

#: Python calls per eager round trip (355.2 when set; 514.2 before the
#: poll-loop call cuts)
BUDGET = 356

WARMUP = 200
MEASURED = 200


@pytest.fixture(autouse=True)
def fatal_invariants():
    """Runs disarmed, overriding the suite's fatal registry: the budget is
    what a user's run pays, and the checks gated on
    ``invariants.ENABLED`` must cost a disarmed run nothing."""
    invariants.uninstall()
    yield None


def _python_calls_per_round_trip() -> float:
    cluster = build_cluster(2)
    client, server, client_ch, _ = connect_pair(cluster)

    def echo():
        while True:
            request = yield server.incoming.get()
            server.send_response(request, 64)

    def round_trips(count):
        for _ in range(count):
            yield client.send_request(client_ch, 256).response

    cluster.sim.spawn(echo())
    run_process(cluster, round_trips(WARMUP))
    with CallCounter() as counter:
        run_process(cluster, round_trips(MEASURED))
    return counter.python / MEASURED


def test_eager_round_trip_stays_within_its_call_budget():
    assert not invariants.ENABLED
    assert _python_calls_per_round_trip() <= BUDGET
