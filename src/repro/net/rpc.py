"""Asynchronous remote procedure calls over the simulated network.

The paper's prototype implements its message-passing subsystem with
"asynchronous remote procedure calls (without out parameters)".  This module
provides the equivalent: a node can expose named procedures, and any other
node can invoke them one-way.  A thin request/reply convenience layer is
also provided (used by the external-object transaction protocol), built from
two one-way calls, because some substrates genuinely need an answer.

Failure semantics (what :meth:`RpcEndpoint.call` promises):

* with a ``timeout``, a request or reply lost to a fault plan or a dead
  destination fails the returned event with :class:`RpcTimeoutError` and
  removes the pending-reply entry — the caller never hangs and nothing
  leaks;
* a reply that arrives *after* its call timed out (or that was never
  solicited) is ignored, not an error;
* call ids are drawn from a per-endpoint counter, so replay determinism
  never depends on what else ran earlier in the process.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..simkernel.events import Event, Timeout
from ..simkernel.kernel import Kernel
from .message import Envelope
from .network import Network
from .node import Node

logger = logging.getLogger(__name__)


class RpcTimeoutError(RuntimeError):
    """A call's reply did not arrive within the caller's timeout."""


@dataclass
class RpcRequest:
    """One-way invocation of ``procedure`` with positional ``args``.

    ``call_id`` 0 means "unassigned"; endpoints stamp outgoing requests
    from their own counter (see :meth:`RpcEndpoint._next_call_id`).
    """

    procedure: str
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    call_id: int = 0
    reply_to: Optional[str] = None
    expects_reply: bool = False


@dataclass
class RpcReply:
    """Reply to a request that asked for one."""

    call_id: int
    value: Any = None
    error: Optional[str] = None


class RpcEndpoint:
    """Attaches RPC dispatch to a node.

    By default the endpoint is its node's :attr:`~Node.consumer`: RPC
    payloads are handled inside their delivery event (handlers never wait,
    so no process is needed) and any other envelope goes to ``fallback``.

    With ``drain=False`` another consumer (the partition
    :class:`~repro.runtime.dispatcher.Dispatcher`) routes RPC payloads to
    :meth:`handle_payload`, so a partition can be an RPC client/server.
    """

    def __init__(self, node: Node, network: Network,
                 fallback: Optional[Callable[[Any], None]] = None,
                 drain: bool = True) -> None:
        self.node = node
        self.network = network
        self.kernel: Kernel = node.kernel
        self.fallback = fallback
        self._procedures: Dict[str, Callable[..., Any]] = {}
        self._pending_replies: Dict[int, Event] = {}
        #: Per-endpoint call-id counter: ids are deterministic for a given
        #: call sequence regardless of whatever else ran in the process.
        self._call_ids = itertools.count(1)
        if drain:
            node.consumer = self._consume
        node.services["rpc"] = self

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def register(self, name: str, handler: Callable[..., Any]) -> None:
        """Expose ``handler`` under ``name`` for remote invocation.

        A handler may return an untriggered :class:`Event` to defer its
        reply: the endpoint then answers when the event fires (with the
        event's value, or with the failure's message as the remote error).
        """
        if name in self._procedures:
            raise ValueError(f"procedure {name!r} already registered")
        self._procedures[name] = handler

    def unregister(self, name: str) -> None:
        """Remove a previously registered procedure."""
        self._procedures.pop(name, None)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def call_oneway(self, destination: str, procedure: str,
                    *args: Any, **kwargs: Any) -> None:
        """Invoke a remote procedure without waiting for any result."""
        request = RpcRequest(procedure=procedure, args=args, kwargs=kwargs,
                             call_id=next(self._call_ids))
        self.network.send(self.node.name, destination, request)

    def call(self, destination: str, procedure: str, *args: Any,
             timeout: Optional[float] = None, **kwargs: Any) -> Event:
        """Invoke a remote procedure and return an event for the reply.

        The returned event fires with the reply value, or fails with a
        ``RuntimeError`` carrying the remote error message.  With a
        ``timeout`` (virtual time units), a reply that has not arrived in
        time fails the event with :class:`RpcTimeoutError` and drops the
        pending entry, so a request or reply lost to a fault plan (or a
        dead destination) cannot hang the caller or leak bookkeeping; a
        late reply after the timeout is ignored.
        """
        request = RpcRequest(procedure=procedure, args=args, kwargs=kwargs,
                             call_id=next(self._call_ids),
                             reply_to=self.node.name, expects_reply=True)
        reply_event = self.kernel.event()
        self._pending_replies[request.call_id] = reply_event
        self.network.send(self.node.name, destination, request)
        if timeout is not None:
            def _expire(_event, call_id=request.call_id,
                        destination=destination, procedure=procedure):
                pending = self._pending_replies.pop(call_id, None)
                if pending is not None and not pending.triggered:
                    pending.fail(RpcTimeoutError(
                        f"call #{call_id} {procedure!r} to {destination!r} "
                        f"timed out after {timeout}"))
            Timeout(self.kernel, timeout).callbacks.append(_expire)
        return reply_event

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle_payload(self, payload: Any) -> bool:
        """Route one received RPC payload; True if it was one.

        External inbox consumers (``drain=False`` endpoints) call this for
        payloads they recognise as RPC traffic.
        """
        if isinstance(payload, RpcRequest):
            self._handle_request(payload)
            return True
        if isinstance(payload, RpcReply):
            self._handle_reply(payload)
            return True
        return False

    def _consume(self, envelope: Envelope) -> None:
        if not self.handle_payload(envelope.payload) and \
                self.fallback is not None:
            self.fallback(envelope)
        # Messages with no handler and no fallback are dropped silently;
        # the network statistics still recorded them.

    def _handle_request(self, request: RpcRequest) -> None:
        handler = self._procedures.get(request.procedure)
        if handler is None:
            if request.expects_reply and request.reply_to:
                self.network.send(self.node.name, request.reply_to,
                                  RpcReply(request.call_id, error=
                                           f"unknown procedure {request.procedure!r}"))
            return
        try:
            value = handler(*request.args, **request.kwargs)
            error = None
        except Exception as exc:  # deliberate broad catch: errors cross nodes
            value, error = None, f"{type(exc).__name__}: {exc}"
            if not (request.expects_reply and request.reply_to):
                # A one-way call has nowhere to report its failure; without
                # this it would vanish entirely.
                self._report_oneway_failure(request, error)
        if request.expects_reply and request.reply_to:
            if error is None and isinstance(value, Event) \
                    and not value.triggered:
                # Deferred reply: answer when the handler's event fires.
                value.callbacks.append(self._deferred_replier(request))
                return
            self.network.send(self.node.name, request.reply_to,
                              RpcReply(request.call_id, value=value, error=error))

    def _deferred_replier(self, request: RpcRequest) -> Callable[[Event], None]:
        def _reply(event: Event) -> None:
            if event.ok:
                value, error = event.value, None
            else:
                event.defused = True
                exc = event.value
                value, error = None, f"{type(exc).__name__}: {exc}"
            self.network.send(self.node.name, request.reply_to,
                              RpcReply(request.call_id, value=value,
                                       error=error))
        return _reply

    def _report_oneway_failure(self, request: RpcRequest, error: str) -> None:
        logger.warning("one-way RPC %r on node %s failed: %s",
                       request.procedure, self.node.name, error)
        obs = self.network._obs
        if obs is not None:
            obs.rpc_failure(self.node.name, request.procedure, error)

    def _handle_reply(self, reply: RpcReply) -> None:
        # Unknown call ids — unsolicited replies, or replies arriving after
        # their call timed out — are ignored by design.
        event = self._pending_replies.pop(reply.call_id, None)
        if event is None or event.triggered:
            return
        if reply.error is None:
            event.succeed(reply.value)
        else:
            event.fail(RuntimeError(reply.error))
