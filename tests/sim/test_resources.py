"""Unit tests for the Store hand-off primitive."""

import pytest

from repro.sim import Simulator, Store


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)
        item = yield store.get()
        got.append(item)

    store.put_nowait("a")
    store.put_nowait("b")
    sim.spawn(consumer())
    sim.run()
    assert got == ["a", "b"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    times = []

    def consumer():
        item = yield store.get()
        times.append((item, sim.now))

    def producer():
        yield sim.timeout(500)
        store.put_nowait("late")

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert times == [("late", 500)]


def test_store_fifo_ordering_of_getters():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(name):
        item = yield store.get()
        got.append((name, item))

    sim.spawn(consumer("first"))
    sim.spawn(consumer("second"))

    def producer():
        yield sim.timeout(10)
        store.put_nowait("x")
        store.put_nowait("y")

    sim.spawn(producer())
    sim.run()
    assert got == [("first", "x"), ("second", "y")]


def test_put_nowait_hands_to_waiting_getter():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    sim.spawn(consumer())
    sim.run()  # consumer is now parked
    store.put_nowait("direct")
    sim.run()
    assert got == ["direct"]


def test_get_nowait_pops_or_raises():
    sim = Simulator()
    store = Store(sim)
    store.put_nowait("a")
    assert store.get_nowait() == "a"
    with pytest.raises(IndexError):
        store.get_nowait()


def test_store_len_tracks_items():
    sim = Simulator()
    store = Store(sim)
    assert len(store) == 0
    store.put_nowait(1)
    store.put_nowait(2)
    assert len(store) == 2
