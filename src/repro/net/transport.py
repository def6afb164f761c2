"""The transport abstraction: one message contract, several executors.

Every layer above the network — dispatchers, the signal coordinator,
exception resolution, both baseline algorithms — talks to its transport
through exactly three operations: register a node, look a node up, and
``send`` a payload from one named node to another.  This module states
that contract as an abstract base so the same protocol code can run on
different executors:

* :class:`~repro.net.network.Network` — the deterministic simulation
  transport (virtual time, seeded tie-breaking, fault plans, conformance
  digests);
* :class:`~repro.net.realnet.RealNetwork` — the same simulation
  network inside one OS process per node, with non-local destinations
  forwarded over asyncio sockets by the :mod:`repro.real` backend
  and wall-clock pacing standing in for the virtual clock.

The contract deliberately mirrors what the sim network already provided;
the point of the interface is that nothing above it may depend on more
(e.g. on reaching into another node's partition state), which is what
makes the protocol code executable across real process boundaries.
"""

from __future__ import annotations

import abc
from typing import Any

from .message import Envelope
from .node import Node


class Transport(abc.ABC):
    """What the runtime requires of a message transport.

    Guarantees implementations must provide (the paper's assumptions):

    * **at-most-once send-side fate**: :meth:`send` either schedules one
      delivery or drops the message (faults, dead node) — it never
      duplicates;
    * **per-link FIFO**: two sends from A to B are delivered in order;
    * **asynchrony**: :meth:`send` returns immediately; delivery happens
      later (virtual latency or real wire time).
    """

    @abc.abstractmethod
    def add_node(self, name: str, buffer_capacity: int = 4096) -> Node:
        """Create and register a node called ``name``."""

    @abc.abstractmethod
    def node(self, name: str) -> Node:
        """Look up a registered node by name."""

    @abc.abstractmethod
    def __contains__(self, name: str) -> bool:
        """Whether a node called ``name`` is registered."""

    @abc.abstractmethod
    def send(self, source: str, destination: str, payload: Any) -> Envelope:
        """Send ``payload``; returns the (already stamped) envelope."""
