"""The per-process transport of the real backend.

Each child process builds the *full* system — every partition exists as
a stub so bindings, participant sets, and instance-key allocation stay
identical to the sim build — but spawns only its local node's program.
:class:`RealNetwork` keeps intra-process traffic on the ordinary sim
path and forwards everything addressed to a non-local node over the
wire: the sender stamps the envelope with the virtual delivery time its
latency model dictates, and the receiving process injects it no earlier
than that virtual time (clamped to its local clock and per-link FIFO),
so cross-process timing matches the sim schedule up to wall-clock
jitter.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Set

from ..simkernel.events import Timeout
from ..simkernel.kernel import Kernel
from .faults import FaultPlan
from .latency import LatencyModel
from .message import Envelope
from .network import Network

#: forwarder(source, destination, payload, send_vt, deliver_vt)
Forwarder = Callable[[str, str, Any, float, float], None]


class RealNetwork(Network):
    """Sim network for local nodes + wire forwarding for remote ones."""

    def __init__(self, kernel: Kernel, latency: Optional[LatencyModel],
                 local: Iterable[str], forward: Forwarder,
                 faults: Optional[FaultPlan] = None) -> None:
        super().__init__(kernel, latency=latency, faults=faults)
        #: Node names whose delivery happens in this process.
        self.local: Set[str] = set(local)
        self._forward = forward

    # ------------------------------------------------------------------
    def send(self, source: str, destination: str, payload: Any) -> Envelope:
        if destination in self.local:
            return super().send(source, destination, payload)
        # Remote destination: stamp the envelope exactly as the sim would
        # and hand it to the wire.  The receiver enforces arrival no
        # earlier than ``deliver_time`` on its own clock.
        now = self.kernel._now
        envelope = Envelope(source, destination, payload, now, None,
                            self._next_sequence())
        self.stats.record_sent(envelope)
        obs = self._obs
        if obs is not None:
            obs.message_sent(envelope)
        deliver_at = now + self.latency.sample(source, destination)
        envelope.deliver_time = deliver_at
        self._forward(source, destination, payload, now, deliver_at)
        return envelope

    # ------------------------------------------------------------------
    def inject(self, source: str, destination: str, payload: Any,
               deliver_vt: float) -> None:
        """Schedule delivery of a wire message into a local node.

        ``deliver_vt`` is the sender's virtual delivery time; it is
        clamped to this process's clock (wire latency may have outrun
        the wall-clock pacing) and to per-link FIFO.
        """
        kernel = self.kernel
        now = kernel._now
        # Sequence 0: the sending process's network numbered this message.
        envelope = Envelope(source, destination, payload, now)
        link = (source, destination)
        deliver_at = max(deliver_vt, now)
        last = self._link_clock.get(link)
        if last is not None and deliver_at < last:
            deliver_at = last
        self._link_clock[link] = deliver_at
        envelope.deliver_time = deliver_at
        Timeout(kernel, deliver_at - now, envelope).callbacks.append(
            self._deliver)
