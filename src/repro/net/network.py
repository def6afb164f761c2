"""The simulated communication network.

Guarantees provided (matching the paper's assumptions):

* **Assumption 1 — dependable communication**: unless a
  :class:`~repro.net.faults.FaultPlan` says otherwise, every message sent is
  delivered exactly once, uncorrupted.
* **Assumption 2 — FIFO links**: two messages from node A to node B are
  delivered in the order they were sent, even if the latency model would
  assign the second a shorter delay (delivery times are clamped to be
  non-decreasing per directed link).

The network also keeps per-category message counters, which the complexity
benchmarks (Theorem 2, Section 3.2.3) read.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional

from ..simkernel.events import Timeout
from ..simkernel.kernel import Kernel
from .faults import FaultPlan
from .latency import ConstantLatency, LatencyModel
from .message import Envelope
from .node import Node
from .transport import Transport


class UnknownNodeError(KeyError):
    """Raised when sending to or registering a node name that is unknown."""


class MessageStatistics:
    """Message counters kept by the network.

    ``by_type`` counts envelopes by the class name of their payload, which
    is how the benchmarks distinguish protocol messages (``Exception``,
    ``Suspended``, ``Commit``, ``ToBeSignalled``) from application traffic.
    """

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.by_type: Dict[str, int] = defaultdict(int)
        self.by_link: Dict[tuple, int] = defaultdict(int)

    def record_sent(self, envelope: Envelope) -> None:
        """Account one sent envelope (:meth:`Network.send` inlines this:
        one method call per message was measurable on the sim path)."""
        self.sent += 1
        self.by_type[type(envelope.payload).__name__] += 1
        self.by_link[(envelope.source, envelope.destination)] += 1

    def count(self, *type_names: str) -> int:
        """Total number of sent messages whose payload type is in ``type_names``."""
        return sum(self.by_type.get(name, 0) for name in type_names)

    def protocol_messages(self) -> int:
        """Messages belonging to the exception-handling protocols.

        Counts the new algorithm's messages, the signalling algorithm's
        messages and the baseline algorithms' messages, so comparisons
        between algorithms are like for like.
        """
        return self.count("ExceptionMessage", "SuspendedMessage",
                          "CommitMessage", "ToBeSignalledMessage",
                          "CRForwardMessage", "CRResolvedMessage",
                          "CRConfirmMessage", "AgreementMessage",
                          "ConfirmMessage")

    def resolution_messages(self) -> int:
        """Messages belonging to the resolution protocols only (no signalling)."""
        return self.count("ExceptionMessage", "SuspendedMessage",
                          "CommitMessage", "CRForwardMessage",
                          "CRResolvedMessage", "CRConfirmMessage",
                          "AgreementMessage", "ConfirmMessage")

    def reset(self) -> None:
        """Zero every counter (used between benchmark phases)."""
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.by_type.clear()
        self.by_link.clear()

    #: Separator used when encoding a directed link as a single string.
    LINK_SEPARATOR = "->"

    @classmethod
    def encode_link(cls, link: tuple) -> str:
        """Encode a ``(source, destination)`` link as ``"src->dst"``."""
        return f"{link[0]}{cls.LINK_SEPARATOR}{link[1]}"

    @classmethod
    def decode_link(cls, link: Any) -> tuple:
        """Decode a link key from either tuple or ``"src->dst"`` string form."""
        if isinstance(link, tuple):
            return link
        source, separator, destination = str(link).partition(cls.LINK_SEPARATOR)
        if not separator:
            raise ValueError(f"malformed link key {link!r}")
        return (source, destination)

    def snapshot(self) -> Dict[str, Any]:
        """Return a plain-dict copy of every counter.

        The snapshot is a self-contained value that is both picklable and
        JSON-serializable — links are encoded as ``"src->dst"`` strings so
        scenario rows that embed snapshots (``wide_graph``'s
        ``message_stats``) survive conformance digests and JSON
        exports.  :meth:`restore` rebuilds a statistics object from one
        and :meth:`merge` adds one onto another (both accept tuple-keyed
        legacy snapshots as well).  The scenario engine itself isolates
        parallel runs by giving each grid point a fresh system — these
        methods exist for tooling that wants to aggregate such per-run
        counters.
        """
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "by_type": dict(self.by_type),
            "by_link": {self.encode_link(link): count
                        for link, count in self.by_link.items()},
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Reset the counters to the values captured in ``snapshot``."""
        self.reset()
        self.merge(snapshot)

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Add the counters captured in ``snapshot`` onto this instance.

        Used to aggregate the per-run statistics returned by parallel
        scenario workers into one summary.  ``by_link`` keys may be either
        ``(source, destination)`` tuples or ``"src->dst"`` strings.
        """
        self.sent += snapshot.get("sent", 0)
        self.delivered += snapshot.get("delivered", 0)
        self.dropped += snapshot.get("dropped", 0)
        for name, count in snapshot.get("by_type", {}).items():
            self.by_type[name] += count
        for link, count in snapshot.get("by_link", {}).items():
            self.by_link[self.decode_link(link)] += count


class Network(Transport):
    """Connects nodes and delivers messages with configurable latency.

    Parameters
    ----------
    kernel:
        The shared simulation kernel.
    latency:
        Latency model; defaults to zero-delay delivery.
    faults:
        Fault-injection plan; defaults to a fresh no-fault plan.
    """

    #: Minimal spacing enforced between same-link deliveries when the
    #: kernel's seeded tie perturbation is active (see :meth:`send`).
    FIFO_EPSILON = 1e-9

    def __init__(self, kernel: Kernel,
                 latency: Optional[LatencyModel] = None,
                 faults: Optional[FaultPlan] = None) -> None:
        self.kernel = kernel
        self.latency = latency or ConstantLatency(0.0)
        self.faults = faults or FaultPlan()
        self.nodes: Dict[str, Node] = {}
        self.stats = MessageStatistics()
        #: Last scheduled delivery time per directed link, used to enforce
        #: FIFO even under non-deterministic latency.
        self._link_clock: Dict[tuple, float] = {}
        #: Numbers this network's sends 1, 2, 3, ... (``Envelope.sequence``).
        self._next_sequence = itertools.count(1).__next__
        #: The attached observation sink (``repro.obs``), or ``None`` when
        #: observability is off — the hot path then pays one None check.
        self._obs = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(self, name: str, buffer_capacity: int = 4096) -> Node:
        """Create and register a node called ``name``."""
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        node = Node(self.kernel, name, buffer_capacity=buffer_capacity)
        node.attach(self)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise UnknownNodeError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, source: str, destination: str, payload: Any) -> Envelope:
        """Send ``payload`` from ``source`` to ``destination``.

        Returns the envelope (already stamped with the scheduled delivery
        time unless it was dropped).  This is the network's hot path — one
        call per message — so the per-message statistics are recorded
        inline and the kernel internals are reached directly.
        """
        nodes = self.nodes
        if source not in nodes:
            raise UnknownNodeError(source)
        if destination not in nodes:
            raise UnknownNodeError(destination)

        kernel = self.kernel
        now = kernel._now
        envelope = Envelope(source, destination, payload, now, None,
                            self._next_sequence())
        stats = self.stats
        stats.sent += 1
        stats.by_type[type(payload).__name__] += 1
        link = (source, destination)
        stats.by_link[link] += 1
        obs = self._obs
        if obs is not None:
            obs.message_sent(envelope)

        faults = self.faults
        if faults._passive:
            # FaultPlan.apply's fast path, minus the call: a passive plan
            # can touch no message, but the link ordinals advance through
            # the plan's own accessor so mid-run directives stay exact.
            faults.count_link(link)
            extra_delay = 0.0
        else:
            deliver, extra_delay = faults.apply(envelope, now)
            if not deliver:
                stats.dropped += 1
                if obs is not None:
                    obs.message_dropped(envelope, "fault")
                return envelope

        # NB: sample and extra delay are summed *before* adding ``now`` —
        # float addition is not associative, and the conformance digests
        # pin the exact historical association.
        deliver_at = now + (self.latency.sample(source, destination)
                            + extra_delay)
        # FIFO clamp: never deliver before a previously sent message on the
        # same directed link.
        last = self._link_clock.get(link)
        if last is not None:
            if deliver_at < last:
                deliver_at = last
            if deliver_at == last and kernel._tie_random is not None:
                # Under seeded tie perturbation, same-timestamp deliveries
                # on one link could be reordered, which would break
                # Assumption 2.  Keep per-link delivery times strictly
                # increasing so schedule exploration never leaves the FIFO
                # envelope.
                deliver_at += self.FIFO_EPSILON
        elif deliver_at < 0.0:
            deliver_at = 0.0
        self._link_clock[link] = deliver_at
        envelope.deliver_time = deliver_at

        Timeout(kernel, deliver_at - now, envelope).callbacks.append(
            self._deliver)
        return envelope

    def _deliver(self, event: Timeout) -> None:
        """The one delivery step of every message, sent or injected: the
        envelope is the ``Timeout``'s value (see :attr:`Node.consumer`)."""
        envelope = event._value
        target = self.nodes.get(envelope.destination)
        obs = self._obs
        if target is None or not target.alive:
            self.stats.dropped += 1
            if obs is not None:
                obs.message_dropped(envelope, "dead_target")
            return
        self.stats.delivered += 1
        if obs is not None:
            obs.message_delivered(envelope)
        if target.consumer is None:
            target.inbox.deliver(envelope)
        else:
            target.consumer(envelope)

    def broadcast(self, source: str, destinations: Iterable[str],
                  payload: Any) -> List[Envelope]:
        """Send ``payload`` from ``source`` to every name in ``destinations``.

        The sender itself is silently skipped if present in the list, which
        matches the protocols' "send to all other threads" phrasing.
        """
        envelopes = []
        for destination in destinations:
            if destination == source:
                continue
            envelopes.append(self.send(source, destination, payload))
        return envelopes

    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        """Zero the message counters (used between benchmark phases)."""
        self.stats.reset()

    def __repr__(self) -> str:
        return (f"<Network nodes={len(self.nodes)} latency={self.latency!r} "
                f"sent={self.stats.sent}>")
