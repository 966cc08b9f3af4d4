"""The hand-off primitive: an unbounded FIFO store.

Accept queues, receive mailboxes and socket byte streams are all Stores
under the hood: a producer deposits without blocking, a consumer process
yields ``get()`` until an item is there.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Store:
    """An unbounded FIFO channel of arbitrary items.

    ``get`` returns an event a process yields to block until an item
    arrives; waiting getters are served oldest first.
    """

    def __init__(self, sim: "Simulator", name: str = "store") -> None:
        self.sim = sim
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put_nowait(self, item: Any) -> None:
        """Deposit ``item``, handing it straight to the oldest waiting getter."""
        if self._getters and not self.items:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """Event that fires with the oldest item once one is available."""
        ev = Event(self.sim, name=f"{self.name}:get")
        if self.items:
            ev.succeed(self.items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def get_nowait(self) -> Any:
        """Pop the oldest item; raises IndexError when empty."""
        return self.items.popleft()
