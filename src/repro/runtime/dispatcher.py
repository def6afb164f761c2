"""Message dispatch for the partition executive.

The dispatcher is the node's inbox consumer, called inside each delivery
event; it routes each payload to the right consumer:

* entry/exit announcements update the barrier bookkeeping that the
  life-cycle waits on;
* application messages go to per-``(instance, tag)`` cooperation mailboxes;
* signalling messages go to the frame's signal coordinator (or are parked
  until the local signalling phase starts);
* every other protocol message feeds the resolution coordinator, whose
  resulting effects are executed in-line.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set, Tuple, TYPE_CHECKING

from ..core.exceptions import FAILURE
from ..core.messages import (
    ApplicationMessage,
    EnterActionMessage,
    ExitReadyMessage,
    ProtocolMessage,
    ToBeSignalledMessage,
)
from ..simkernel.channels import Mailbox
from ..simkernel.events import Event
from . import events as kinds

if TYPE_CHECKING:  # pragma: no cover
    from ..net.message import Envelope
    from .partition import Partition


class Dispatcher:
    """Consumes one node's deliveries, routing payloads to their consumers."""

    def __init__(self, partition: "Partition") -> None:
        self.partition = partition
        #: Barrier bookkeeping: action instance key -> set of announced threads.
        self._entry_seen: Dict[str, Set[str]] = defaultdict(set)
        self._entry_events: Dict[str, Tuple[Set[str], Event]] = {}
        self._exit_seen: Dict[str, Set[str]] = defaultdict(set)
        self._exit_events: Dict[str, Tuple[Set[str], Event]] = {}
        #: Application cooperation mailboxes: (instance_key, tag) -> Mailbox.
        self._app_mailboxes: Dict[Tuple[str, str], Mailbox] = {}
        #: Signalling messages that arrived before the local phase started.
        self._pending_signals: Dict[str, List[ToBeSignalledMessage]] = \
            defaultdict(list)
        #: The instance-keyed registries swept by :meth:`release_instance`
        #: (bound once; the sweep runs per concluded instance).
        self._instance_registries = (
            self._entry_seen, self._entry_events,
            self._exit_seen, self._exit_events, self._pending_signals)
        #: Top-level scopes this dispatcher holds *any* state for.  Lets
        #: :meth:`release_instance` — called on every dispatcher of the
        #: system for every concluded instance — return after one set
        #: lookup on the (pool_size - width) dispatchers that never saw
        #: the instance, instead of scanning six registries each.
        self._active_scopes: Set[str] = set()
        self._inbox = partition.node.inbox
        #: Set while :meth:`loop` finishes a dispatch that had to wait.
        self.busy = False

    # ------------------------------------------------------------------
    # Consuming deliveries
    # ------------------------------------------------------------------
    def consume(self, envelope: "Envelope") -> None:
        """The node's consumer: dispatch now, or buffer while :attr:`busy`.

        A dispatch that has to wait hands its continuation to :meth:`loop`.
        """
        if self.busy:
            self._inbox.deliver(envelope)
            return
        pending = self.dispatch_sync(envelope.payload, envelope.corrupted)
        if pending is not None:
            self.busy = True
            self._inbox.deliver(pending)

    def loop(self):
        """The process body: finish a waiting dispatch, then the backlog."""
        inbox = self._inbox
        items = inbox.items
        dispatch_sync = self.dispatch_sync
        while True:
            pending = yield inbox.get()
            while pending is not None:
                yield from pending
                pending = None
                while items and pending is None:
                    envelope = items.popleft()
                    pending = dispatch_sync(envelope.payload,
                                            envelope.corrupted)
            self.busy = False

    def dispatch_sync(self, payload, corrupted: bool = False):
        """Route one received payload.

        Returns ``None`` when the payload was fully handled, which is
        nearly always; a protocol message whose effects have to wait
        (:meth:`EffectInterpreter.interpret` suspended on a resolution
        charge or an undo round) returns the generator the caller must
        drive to finish them (:meth:`consume` hands it to :meth:`loop`).

        A corrupted signalling message is not trusted: per Section 3.4 "the
        corrupted message … can be simply treated as a failure exception",
        so the sender is recorded as proposing ƒ, which forces the whole
        group to signal ƒ.  (The resolution algorithm itself assumes
        dependable communication — Assumption 1 — so corruption of its
        messages is outside the protocol's fault model and they are
        delivered as-is.)
        """
        partition = self.partition
        if isinstance(payload, EnterActionMessage):
            self._note_entry(payload)
            return None
        if isinstance(payload, ExitReadyMessage):
            self._note_exit(payload)
            return None
        if isinstance(payload, ApplicationMessage):
            self.mailbox(payload.action, payload.tag).deliver(payload.body)
            return None
        if isinstance(payload, ToBeSignalledMessage):
            if corrupted:
                partition.log.append(
                    f"corrupted toBeSignalled from {payload.thread} "
                    f"for {payload.action}: treated as ƒ")
                payload = ToBeSignalledMessage(payload.action, payload.thread,
                                               FAILURE, payload.round_number,
                                               instance=payload.instance)
            return self._route_signalling(payload)
        if isinstance(payload, ProtocolMessage):
            effects = partition.coordinator.receive(payload)
            if not effects:
                return None
            return partition.interpreter.interpret(effects)
        # RPC traffic for an endpoint co-located on this node (external
        # atomic objects, transport-backend services).  The endpoint is
        # constructed with ``drain=False`` so it leaves the node's consumer
        # slot to this dispatcher.
        rpc = partition.node.services.get("rpc")
        if rpc is not None and rpc.handle_payload(payload):
            return None
        partition.log.append(f"unhandled payload {payload!r}")
        return None

    # ------------------------------------------------------------------
    # Barrier bookkeeping (consumed by the life-cycle's entry/exit waits)
    # ------------------------------------------------------------------
    def entry_complete(self, key: str, needed: Set[str]) -> bool:
        """True if every thread in ``needed`` announced entry of ``key``."""
        seen = self._entry_seen.get(key)
        return seen is not None and needed <= seen

    def exit_complete(self, key: str, needed: Set[str]) -> bool:
        """True if every thread in ``needed`` announced exit of ``key``."""
        seen = self._exit_seen.get(key)
        return seen is not None and needed <= seen

    def _touch_scope(self, key: str) -> None:
        """Record that instance-keyed state exists for ``key``'s scope.

        The first touch of a scope also registers this dispatcher in the
        system-wide scope index, so releasing an instance visits exactly
        the dispatchers that hold state for it (not the whole pool).
        """
        # find() instead of split(): almost every key is a bare top-level
        # scope, and this runs once per routed announcement.
        cut = key.find("/")
        scope = key if cut < 0 else key[:cut]
        if scope not in self._active_scopes:
            self._active_scopes.add(scope)
            self.partition.system.note_scope_dispatcher(scope, self)

    def register_entry_wait(self, key: str, needed: Set[str]) -> Event:
        """Create the event triggered when the entry barrier completes."""
        event = self.partition.kernel.event()
        self._entry_events[key] = (needed, event)
        self._touch_scope(key)
        return event

    def register_exit_wait(self, key: str, needed: Set[str]) -> Event:
        """Create the event triggered when the exit barrier completes."""
        event = self.partition.kernel.event()
        self._exit_events[key] = (needed, event)
        self._touch_scope(key)
        return event

    def clear_entry_wait(self, key: str) -> None:
        self._entry_events.pop(key, None)

    def clear_exit_wait(self, key: str) -> None:
        self._exit_events.pop(key, None)

    def _note_entry(self, message: EnterActionMessage) -> None:
        key = message.instance
        self._touch_scope(key)
        self._entry_seen[key].add(message.thread)
        waiting = self._entry_events.get(key)
        if waiting is not None:
            needed, event = waiting
            if needed <= self._entry_seen[key] and not event.triggered:
                event.succeed()

    def _note_exit(self, message: ExitReadyMessage) -> None:
        key = message.instance
        self._touch_scope(key)
        self._exit_seen[key].add(message.thread)
        waiting = self._exit_events.get(key)
        if waiting is not None:
            needed, event = waiting
            if needed <= self._exit_seen[key] and not event.triggered:
                event.succeed()

    # ------------------------------------------------------------------
    # Application cooperation mailboxes
    # ------------------------------------------------------------------
    def mailbox(self, instance_key: str, tag: str) -> Mailbox:
        """The cooperation mailbox for ``(instance_key, tag)`` (create lazily)."""
        key = (instance_key, tag)
        box = self._app_mailboxes.get(key)
        if box is None:
            box = self._app_mailboxes[key] = Mailbox(self.partition.kernel)
            self._touch_scope(instance_key)
        return box

    # ------------------------------------------------------------------
    # Per-instance bookkeeping release
    # ------------------------------------------------------------------
    def release_instance(self, instance: str) -> None:
        """Drop barrier/mailbox/parked-signal state of a concluded instance.

        Called (via :meth:`DistributedCASystem.release_instance`) when the
        workload driver retires an instance scope: a long-lived run would
        otherwise accumulate one entry/exit set, cooperation mailbox and
        pending-signal slot per instance ever served.  Keys are the
        instance key itself and any nested ``instance/...`` keys.
        """
        cut = instance.find("/")
        scope = instance if cut < 0 else instance[:cut]
        if scope not in self._active_scopes:
            # This dispatcher never saw the instance (the usual case on a
            # wide pool): nothing to sweep.
            return
        if instance == scope:
            self._active_scopes.discard(scope)
        prefix = instance + "/"
        for registry in self._instance_registries:
            if not registry:
                continue
            stale = [k for k in registry
                     if k == instance or k.startswith(prefix)]
            for key in stale:
                del registry[key]
        mailboxes = self._app_mailboxes
        if mailboxes:
            stale = [k for k in mailboxes
                     if k[0] == instance or k[0].startswith(prefix)]
            for key in stale:
                del mailboxes[key]

    # ------------------------------------------------------------------
    # Signalling messages
    # ------------------------------------------------------------------
    def take_pending_signals(self, *keys: str) -> List[ToBeSignalledMessage]:
        """Remove and return signalling messages parked under any of ``keys``.

        The life-cycle passes both the frame's instance key and its action
        name: instance-stamped proposals park under the instance key while
        unstamped (legacy) ones park under the name.
        """
        pending: List[ToBeSignalledMessage] = []
        for key in keys:
            pending.extend(self._pending_signals.pop(key, []))
        return pending

    def _route_signalling(self, message: ToBeSignalledMessage):
        partition = self.partition
        key = message.instance or message.action
        frame = partition.find_frame(key)
        if frame is None or frame.signal_coordinator is None:
            if message.instance and \
                    message.instance in partition.coordinator.finished_instances:
                # The instance already ended here; parking the proposal
                # would keep it (and its key) forever.
                partition.system.emit(kinds.SIGNAL_STALE_DROPPED,
                                      partition.name, message.action,
                                      message.instance)
                return None
            self._touch_scope(key)
            self._pending_signals[key].append(message)
            partition.system.emit(kinds.SIGNAL_PARKED, partition.name,
                                  message.action, message.instance)
            return None
        effects = frame.signal_coordinator.receive(message)
        return partition.interpreter.interpret(effects) if effects else None
