"""Message envelopes carried by the simulated network.

The CA-action protocols (see :mod:`repro.core.messages`) define *payloads*;
the network wraps each payload in an :class:`Envelope` that records the
routing and timing metadata used by metrics and by fault injection.
"""

from __future__ import annotations

from typing import Any, Optional


class Envelope:
    """A single message in flight between two nodes.

    A hand-written ``__slots__`` class (not a dataclass): one envelope is
    allocated per message sent, which makes its constructor part of the
    network's hot path.

    Attributes
    ----------
    source:
        Name of the sending node.
    destination:
        Name of the receiving node.
    payload:
        The application- or protocol-level message object.
    send_time:
        Virtual time at which the message was handed to the network.
    deliver_time:
        Virtual time at which it will be (or was) placed in the receiver's
        buffer.  ``None`` until the network schedules delivery.
    sequence:
        The envelope's number on the network that sent it: 1, 2, 3, ...
        per network, forwarded sends included, 0 for one built outside a
        send (a real-backend injection, a test's bare envelope).  The
        observation reads it as the message's flow id.
    corrupted:
        Set by fault injection; a corrupted payload must not be trusted by
        the receiver (the signalling algorithm treats it as ``ƒ``).
    """

    __slots__ = ("source", "destination", "payload", "send_time",
                 "deliver_time", "sequence", "corrupted")

    def __init__(self, source: str, destination: str, payload: Any,
                 send_time: float = 0.0,
                 deliver_time: Optional[float] = None,
                 sequence: int = 0,
                 corrupted: bool = False) -> None:
        self.source = source
        self.destination = destination
        self.payload = payload
        self.send_time = send_time
        self.deliver_time = deliver_time
        self.sequence = sequence
        self.corrupted = corrupted

    @property
    def latency(self) -> Optional[float]:
        """Delivery latency, if delivery has been scheduled."""
        if self.deliver_time is None:
            return None
        return self.deliver_time - self.send_time

    def __repr__(self) -> str:
        return (f"<Envelope #{self.sequence} {self.source}->{self.destination} "
                f"{type(self.payload).__name__} t={self.send_time:.3f}>")
