"""Blocking FIFO channels for inter-process communication inside the kernel.

Two primitives are provided:

* :class:`Store` — unbounded (or capacity-bounded) FIFO buffer; ``get()``
  blocks (returns an event) until an item is available.
* :class:`Mailbox` — a Store specialised for message delivery, with a
  never-blocking ``deliver()`` and a non-blocking ``drain()``.

Both preserve FIFO ordering, which is Assumption 2 of the paper.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, TYPE_CHECKING

from .events import Event, PENDING

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel


class StorePut(Event):
    """Event representing a pending put request."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        # Flattened Event initialisation: puts/gets are per-message events.
        self.kernel = store.kernel
        self.callbacks = []
        self.defused = False
        self._value = PENDING
        self._ok = None
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    """Event representing a pending get request."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        self.kernel = store.kernel
        self.callbacks = []
        self.defused = False
        self._value = PENDING
        self._ok = None
        items = store.items
        if not store._get_queue and not store._put_queue:
            # Fast paths, identical in outcome to _trigger(): with nobody
            # ahead of us, a buffered item is ours, and with nothing
            # buffered there is nothing to match yet.
            if items:
                self.succeed(items.popleft())
            else:
                store._get_queue.append(self)
            return
        store._get_queue.append(self)
        store._trigger()


class Store:
    """FIFO buffer of Python objects with blocking get.

    Parameters
    ----------
    kernel:
        Owning simulation kernel.
    capacity:
        Maximum number of buffered items; ``put`` blocks when full.
        Defaults to unbounded.
    """

    __slots__ = ("kernel", "capacity", "items", "_put_queue", "_get_queue")

    def __init__(self, kernel: "Kernel", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.kernel = kernel
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._put_queue: Deque[StorePut] = deque()
        self._get_queue: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Request to add ``item``; returns an event that fires on success."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Request to remove the oldest item; the event's value is the item."""
        return StoreGet(self)

    def peek_all(self) -> List[Any]:
        """Return a snapshot of buffered items without removing them."""
        return list(self.items)

    def _trigger(self) -> None:
        """Match pending puts and gets against the buffer state."""
        progress = True
        while progress:
            progress = False
            # Admit puts while there is room.
            while self._put_queue and len(self.items) < self.capacity:
                put = self._put_queue.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Serve gets while there are items.
            while self._get_queue and self.items:
                get = self._get_queue.popleft()
                get.succeed(self.items.popleft())
                progress = True


class Mailbox(Store):
    """A Store used as a message inbox.

    Adds :meth:`drain`, which synchronously removes and returns everything
    currently buffered (no simulation time passes), and :meth:`deliver`,
    which is a non-blocking unconditional append used by the network layer
    (delivery never blocks the sender).
    """

    __slots__ = ()

    def deliver(self, item: Any) -> None:
        """Append ``item`` immediately, waking one waiting getter if any."""
        # Fast path for the overwhelmingly common delivery shape: a getter
        # is already waiting, nothing is buffered and no puts are pending,
        # so the item goes straight to the getter (identical succeed order
        # to the general path, without touching the buffer).
        if self._get_queue and not self.items and not self._put_queue:
            self._get_queue.popleft().succeed(item)
            return
        self.items.append(item)
        self._trigger()

    def drain(self) -> List[Any]:
        """Remove and return all currently buffered items (possibly empty)."""
        drained = list(self.items)
        self.items.clear()
        return drained


class CyclicBuffer(Mailbox):
    """Bounded mailbox modelling the paper's per-partition cyclic buffer.

    The prototype in the paper keeps incoming messages "in the cyclic buffer
    of the receiver and then processed afterwards"; here, while the
    receiver is busy finishing an earlier message.  A cyclic buffer
    overwrites the oldest entry when full; here we record any overwritten
    message so that tests can assert the buffer was sized adequately (the
    algorithms assume no message loss).
    """

    __slots__ = ("overwritten",)

    def __init__(self, kernel: "Kernel", capacity: int = 1024) -> None:
        super().__init__(kernel, capacity=capacity)
        self.overwritten: List[Any] = []

    def deliver(self, item: Any) -> None:
        """One step per item: hand over, or account for overflow and buffer.

        A busy receiver calls this once per envelope it buffers, so
        the whole decision lives here instead of in a ``super()`` chain; the
        outcome is :meth:`Mailbox.deliver`'s, with the oldest entry
        overwritten first when the buffer is full.
        """
        items = self.items
        if not items:
            if self._get_queue and not self._put_queue:
                self._get_queue.popleft().succeed(item)
                return
        elif len(items) >= self.capacity:
            self.overwritten.append(items.popleft())
        items.append(item)
        if self._get_queue or self._put_queue:
            self._trigger()
