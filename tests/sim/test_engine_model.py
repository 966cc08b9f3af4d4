"""The engine *is* a single heap keyed ``(time, sequence)``.

``repro.sim.engine`` keeps every pending entry, bare or event, zero-delay or
not, on one ``heapq`` heap.  Here a ten-line reference model — one
``heapq``, nothing else — predicts the firing order of random programs, and
the engine must match it entry for entry under every way of draining it:
the bare/event dispatch, process bootstraps and resumes, and the bound's
put-back must not reorder anything.

A program is a list of op-lists: the k-th entry to fire runs ``script[k]``,
each op scheduling one new entry — a Timeout, a bare ``schedule`` entry, a
process, a succeeded or failed event — so any divergence in order changes
what runs next and shows up in the fired ``(time, label)`` trace.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

#: (kind, delay); ``succeed`` / ``fail`` fire at the current instant
OPS = st.tuples(
    st.sampled_from(["timeout", "bare", "spawn", "succeed", "fail"]),
    st.integers(0, 3))
SCRIPTS = st.lists(st.lists(OPS, max_size=4), min_size=1, max_size=40)


class HeapModel:
    """The reference: one heap keyed ``(time, sequence)``."""

    def __init__(self):
        self.now, self.sequence, self.heap = 0, 0, []

    def trigger(self, delay, label):
        self.sequence += 1
        heapq.heappush(self.heap, (self.now + delay, self.sequence, label))

    def run(self, on_fire):
        while self.heap:
            self.now, _, label = heapq.heappop(self.heap)
            on_fire(label)


class Program:
    """Runs a script; ``trigger(kind, delay, label)`` is the backend."""

    def __init__(self, script, clock, trigger):
        self.script, self.clock, self.trigger = script, clock, trigger
        self.labels = 0
        self.trace = []
        #: label -> (delay, label) to trigger after this label's ops ran:
        #: a process's one yield, then its exit
        self.after = {}

    def start(self, ops):
        for kind, delay in ops:
            self.labels += 1
            if kind == "spawn":
                woke, exited = f"{self.labels}w", f"{self.labels}x"
                self.after[self.labels] = (delay, woke)
                self.after[woke] = (0, exited)
            if kind in ("spawn", "succeed", "fail"):
                delay = 0
            self.trigger(kind, delay, self.labels)

    def fired(self, label):
        self.trace.append((self.clock(), label))
        if len(self.trace) < len(self.script):
            self.start(self.script[len(self.trace)])


def predicted(script):
    model = HeapModel()
    program = Program(script, lambda: model.now,
                      lambda kind, delay, label: model.trigger(delay, label))

    def on_fire(label):
        program.fired(label)
        if label in program.after:      # the process yields / returns
            model.trigger(*program.after[label])

    program.start(script[0])
    model.run(on_fire)
    return program.trace


def observed(script, drain):
    sim = Simulator()

    def body(label):
        program.fired(label)
        delay, woke = program.after[label]
        yield sim.timeout(delay)
        program.fired(woke)

    def trigger(kind, delay, label):
        def on_fire(_event):
            program.fired(label)

        if kind == "spawn":
            exited = program.after[program.after[label][1]][1]
            sim.spawn(body(label)).callbacks.append(
                lambda _ev: program.fired(exited))
        elif kind == "timeout":
            sim.timeout(delay).callbacks.append(on_fire)
        elif kind == "bare":
            sim.schedule(delay, program.fired, label)
        elif kind == "succeed":
            sim.event().succeed().callbacks.append(on_fire)
        else:
            event = sim.event()
            event.defused = True
            event.fail(RuntimeError(label)).callbacks.append(on_fire)

    program = Program(script, lambda: sim.now, trigger)
    program.start(script[0])
    drain(sim)
    assert not sim._heap
    return program.trace


def _by_run(sim):
    sim.run()


def _by_slices(sim):
    while sim._heap:                    # exercises the bound's put-back
        sim.run(until=sim.now + 1)


@settings(max_examples=200, deadline=None)
@given(script=SCRIPTS, drain=st.sampled_from([_by_run, _by_slices]))
def test_engine_fires_in_single_heap_order(script, drain):
    assert observed(script, drain) == predicted(script)
