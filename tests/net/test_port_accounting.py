"""EgressPort accounting: occupancy and the dequeue-complete instant.

Regression for the PFC/ECN window bug: ``queued_bytes`` used to drop at
*pop* time, a full serialization delay before the segment left the port,
while the xon hook fired only after the wire was free — so occupancy-based
decisions saw bytes vanish while the link was still busy.  Both must move
at the dequeue-complete instant, together.
"""

import pytest

from repro.net.packet import Segment
from repro.sim import SimParams, Simulator
from repro.topology.link import EgressPort


class _SinkDevice:
    def __init__(self):
        self.received = []

    def receive(self, segment, port):
        self.received.append(segment)


def make_port(sim, params, on_dequeue=None):
    port = EgressPort(sim, params, "tx0", on_dequeue=on_dequeue)
    port.connect(_SinkDevice(), 0)
    return port


def test_queued_bytes_drop_at_dequeue_complete():
    sim = Simulator()
    params = SimParams()
    dequeues = []
    port = make_port(sim, params,
                     on_dequeue=lambda seg: dequeues.append(
                         (sim.now, seg.size, port.queued_bytes)))
    seg_a = Segment(src=0, dst=1, size=1000)
    seg_b = Segment(src=0, dst=1, size=1000)
    ser = port._serialization_ns(seg_a)

    port.enqueue(seg_a)
    port.enqueue(seg_b)
    assert port.queued_bytes == 2000

    # Mid-serialization of the first segment: nothing has left the port
    # yet, so occupancy must still cover both segments (the old code had
    # already dropped to 1000 here).
    samples = []
    sim.call_at(ser - 1, lambda: samples.append(port.queued_bytes))
    sim.run()

    assert samples == [2000]
    # The xon hook fires exactly when each segment finishes serializing,
    # and sees the post-decrement occupancy at that same instant.
    assert dequeues == [(ser, 1000, 1000), (2 * ser, 1000, 0)]


def test_xon_hook_and_delivery_are_consistent():
    sim = Simulator()
    params = SimParams()
    hook_times = []
    port = make_port(sim, params,
                     on_dequeue=lambda seg: hook_times.append(sim.now))
    port.enqueue(Segment(src=0, dst=1, size=500))
    ser = port._serialization_ns(Segment(src=0, dst=1, size=500))
    sim.run()

    assert hook_times == [ser]
    assert port.peer.received[0].size == 500
    # Delivery lands one propagation after the dequeue-complete instant.
    assert sim.now == ser + params.link_propagation_ns
    assert port.queued_bytes == 0
    assert port.tx_segments == 1
    assert port.tx_bytes == 500


def test_port_is_callback_driven_two_events_per_segment(monkeypatch):
    """A port never spawns a process, and a segment-hop costs exactly two
    scheduled events (serialize, deliver) — no zero-delay wake hop."""
    monkeypatch.setattr(          # the Simulator is slotted: patch the class
        Simulator, "spawn",
        lambda self, *a, **kw: pytest.fail("a port spawned a process"))
    sim = Simulator()
    sim.enable_tie_audit()
    params = SimParams()
    port = make_port(sim, params)
    ser = port._serialization_ns(Segment(src=0, dst=1, size=1000))

    # One segment on an idle port: two sequence numbers, two pops.
    seq, pops = sim._sequence, sim.tie_audit.pops
    port.enqueue(Segment(src=0, dst=1, size=1000))
    assert port.busy and not sim._nowq      # serializing now, nothing deferred
    sim.run()
    assert (sim._sequence - seq, sim.tie_audit.pops - pops) == (2, 2)
    assert port.tx_segments == 1 and not port.busy

    # A second enqueue during serialization adds exactly two more.
    seq, pops = sim._sequence, sim.tie_audit.pops
    port.enqueue(Segment(src=0, dst=1, size=1000))
    sim.call_after(ser // 2, lambda: port.enqueue(
        Segment(src=0, dst=1, size=1000)))          # +1 event: this timer
    sim.run()
    assert (sim._sequence - seq, sim.tie_audit.pops - pops) == (5, 5)
    assert port.tx_segments == 3 and not port.busy

    # Unpause with a queued head restarts without a zero-delay event.
    port.set_paused(True)
    port.enqueue(Segment(src=0, dst=1, size=1000))
    assert not port.busy and not sim._heap and not sim._nowq
    seq, pops = sim._sequence, sim.tie_audit.pops
    port.set_paused(False)
    assert port.busy and not sim._nowq
    sim.run()
    assert (sim._sequence - seq, sim.tie_audit.pops - pops) == (2, 2)
    assert port.tx_segments == 4 and port.queued_bytes == 0


@pytest.mark.parametrize("pause_first", [True, False])
def test_pause_and_enqueue_in_the_same_nanosecond(pause_first):
    """PFC acts at packet boundaries: a pause landing in the instant of an
    enqueue holds the segment only if its serialization has not started."""
    sim = Simulator()
    params = SimParams()
    port = make_port(sim, params)
    first = Segment(src=0, dst=1, size=1000)
    second = Segment(src=0, dst=1, size=1000)

    def same_instant():
        if pause_first:
            port.set_paused(True)
            port.enqueue(first)
        else:
            port.enqueue(first)
            port.set_paused(True)
        port.enqueue(second)

    sim.call_at(500, same_instant)
    sim.run()
    # Pause first: nothing leaves.  Enqueue first: that one segment was
    # already on the wire when the pause arrived, and only it leaves.
    sent = 0 if pause_first else 1
    assert port.peer.received == [first][:sent]
    assert port.tx_segments == sent
    assert port.queued_bytes == 2000 - 1000 * sent
    assert port.paused and not port.busy

    port.set_paused(False)
    sim.run()
    assert port.peer.received == [first, second]
    assert port.queued_bytes == 0 and not port.busy


def test_pause_mid_burst_keeps_bytes_accounted():
    sim = Simulator()
    params = SimParams()
    port = make_port(sim, params)
    seg = Segment(src=0, dst=1, size=1000)
    ser = port._serialization_ns(seg)

    port.enqueue(seg)
    port.enqueue(Segment(src=0, dst=1, size=1000))
    # Pause lands mid-serialization: the in-flight segment completes (PFC
    # acts at packet boundaries), the second stays queued and accounted.
    sim.call_at(ser // 2, lambda: port.set_paused(True))
    sim.run()
    assert port.tx_segments == 1
    assert port.queued_bytes == 1000
    assert not port.busy

    port.set_paused(False)
    sim.run()
    assert port.tx_segments == 2
    assert port.queued_bytes == 0
