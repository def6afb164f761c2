"""Child-process entry point of the real backend.

Each node process builds its view of the scenario (its registered node
builder, see :mod:`repro.bench.engine`), connects to the parent hub, and runs
the *deterministic sim kernel* paced against the wall clock: an event
scheduled at virtual time ``t`` executes no earlier than
``start + t * time_scale`` seconds of real time.  Between kernel steps
the process pumps its hub socket with ``select`` — wire messages are
injected into the local :class:`~repro.net.real.realnet.RealNetwork`
honouring the sender's virtual delivery stamp.

The kernel is single-threaded and generator-based, which is exactly why
the child does **not** use asyncio: a blocking ``select`` between steps
is the whole event loop it needs.
"""

from __future__ import annotations

import select
import socket
import time
from typing import Any, Dict, Iterable

from .framing import FrameDecoder, encode_frame

#: Safety cap on the unpaced drain after ``finalize`` (a healthy run
#: needs a few hundred steps; a livelocked one must not hang the child).
FINALIZE_STEP_CAP = 100_000

#: Longest single wait between socket polls while idle (seconds).
_POLL = 0.05


class _HubLink:
    """Blocking socket + framing to the parent hub."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = FrameDecoder()
        self.closed = False

    def send(self, frame: Dict[str, Any]) -> None:
        if self.closed:
            return
        try:
            self.sock.sendall(encode_frame(frame))
        except OSError:
            self.closed = True

    def poll(self, timeout: float):
        """Frames that arrived within ``timeout`` seconds (maybe none)."""
        if self.closed:
            time.sleep(timeout)
            return []
        ready, _, _ = select.select([self.sock], [], [], timeout)
        if not ready:
            return []
        try:
            data = self.sock.recv(65536)
        except OSError:
            self.closed = True
            return []
        if not data:
            self.closed = True
            return []
        return list(self.decoder.feed(data))


class NodeInbox:
    """The one place frames from the hub are interpreted.

    Every frame the link yields goes through :meth:`handle`, whatever
    phase the node is in: a ``msg`` that shares a ``recv`` buffer with
    ``start`` (a faster sibling already sent it) is injected, not lost.
    """

    def __init__(self, network) -> None:
        self.network = network
        self.started = False
        self.finalizing = False

    def handle(self, frames: Iterable[Dict[str, Any]]) -> None:
        for frame in frames:
            kind = frame.get("kind")
            if kind == "msg":
                self.network.inject(frame["src"], frame["dst"],
                                    frame["payload"], frame["deliver_vt"])
            elif kind == "start":
                self.started = True
            elif kind == "finalize":
                self.finalizing = True


def run_node(host: str, port: int, scenario: str, node: str,
             params: Dict[str, Any], time_scale: float) -> None:
    """Run one node of ``scenario`` against the hub at ``host:port``.

    This is the ``multiprocessing`` (spawn) target: everything it needs
    arrives as picklable arguments and the scenario is resolved by name
    in :data:`repro.bench.engine.REGISTRY` inside the child.
    """
    from ...bench.engine import REGISTRY
    from .scenarios import collect_record

    link = _HubLink(host, port)
    built = REGISTRY.get(scenario).build_node(
        params, node,
        lambda src, dst, payload, send_vt, deliver_vt:
        link.send({"kind": "msg", "src": src, "dst": dst,
                   "payload": payload, "send_vt": send_vt,
                   "deliver_vt": deliver_vt}))
    kernel = built.system.kernel
    programs = built.system._programs
    inbox = NodeInbox(built.system.network)

    link.send({"kind": "hello", "node": node})

    # Hold the kernel until every node is connected, so no early message
    # races another child's registration at the hub.
    while not inbox.started and not link.closed:
        inbox.handle(link.poll(_POLL))

    start_wall = time.monotonic()
    done_sent = False
    while inbox.started and not inbox.finalizing and not link.closed:
        if not done_sent and all(program.triggered for program in programs):
            link.send({"kind": "done", "node": node})
            done_sent = True
        next_vt = kernel.peek()
        # Nothing scheduled locally: wait for the wire.  Otherwise pace
        # the next event against the wall clock, pumping the socket while
        # it is early and once more (without blocking) when it is due.
        wait = (_POLL if next_vt == float("inf")
                else start_wall + next_vt * time_scale - time.monotonic())
        inbox.handle(link.poll(min(max(wait, 0.0), _POLL)))
        if wait <= 0 and not inbox.finalizing:
            kernel.step()

    # Finalize: drain the local schedule unpaced, then ship the record.
    steps = 0
    while kernel.peek() != float("inf") and steps < FINALIZE_STEP_CAP:
        kernel.step()
        steps += 1
    record = collect_record(built, local=node)
    record["finalize_steps"] = steps
    link.send({"kind": "final", "node": node, "record": record})
    # Leave the socket open briefly so the final frame flushes before the
    # process exits (the hub closes the connection once it has read it).
    link.poll(0.2)
