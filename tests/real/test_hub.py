"""Hub protocol tests with scripted in-process clients (no child spawns).

A fake node is just an asyncio TCP client speaking the framed protocol,
so the hub's sequencing (hello barrier, msg routing, done + settle,
finalize, final collection) and its crash handling are pinned down
deterministically and fast enough for tier-1.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.real.framing import FrameDecoder, encode_frame
from repro.real.hub import Hub


class FakeNode:
    """Scripted hub client for one node name."""

    def __init__(self, name):
        self.name = name
        self.reader = None
        self.writer = None
        self.decoder = FrameDecoder()
        self.received = []

    async def connect(self, port):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port)
        self.send({"kind": "hello", "node": self.name})

    def send(self, frame):
        self.writer.write(encode_frame(frame))

    async def expect(self, kind, timeout=5.0):
        """Read frames until one of ``kind`` arrives (others recorded)."""
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            for frame in list(self.received):
                if frame["kind"] == kind:
                    self.received.remove(frame)
                    return frame
            remaining = deadline - asyncio.get_running_loop().time()
            data = await asyncio.wait_for(self.reader.read(65536), remaining)
            assert data, f"hub closed while waiting for {kind!r}"
            self.received.extend(self.decoder.feed(data))

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_hub(nodes, settle=0.05, stall=0.3):
    hub = Hub(nodes, settle=settle, stall=stall)
    server = await asyncio.start_server(hub.handle_client, "127.0.0.1", 0)
    return hub, server, server.sockets[0].getsockname()[1]


def test_full_run_sequence():
    async def scenario():
        hub, server, port = await start_hub(["a", "b"])
        a, b = FakeNode("a"), FakeNode("b")
        await a.connect(port)
        await b.connect(port)
        await asyncio.wait_for(hub.wait_connected(), 5)
        hub.broadcast({"kind": "start"})
        await a.expect("start")
        await b.expect("start")

        # Cross-node message: a -> b through the hub, verbatim.
        a.send({"kind": "msg", "src": "a", "dst": "b",
                "payload": {"n": 1}, "send_vt": 0.0, "deliver_vt": 0.1})
        routed = await b.expect("msg")
        assert routed["payload"] == {"n": 1}
        assert routed["deliver_vt"] == 0.1

        a.send({"kind": "done", "node": "a"})
        b.send({"kind": "done", "node": "b"})
        await asyncio.wait_for(hub.wait_quiescent(), 5)
        hub.broadcast({"kind": "finalize"})
        await a.expect("finalize")
        await b.expect("finalize")
        a.send({"kind": "final", "node": "a", "record": {"who": "a"}})
        b.send({"kind": "final", "node": "b", "record": {"who": "b"}})
        await asyncio.wait_for(hub.wait_finals(), 5)
        assert hub.finals == {"a": {"who": "a"}, "b": {"who": "b"}}
        assert hub.dead == set()
        await a.close()
        await b.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())


def test_traffic_resets_the_settle_window():
    async def scenario():
        hub, server, port = await start_hub(["a", "b"], settle=0.2)
        a, b = FakeNode("a"), FakeNode("b")
        await a.connect(port)
        await b.connect(port)
        await asyncio.wait_for(hub.wait_connected(), 5)
        a.send({"kind": "done", "node": "a"})
        b.send({"kind": "done", "node": "b"})
        waiter = asyncio.ensure_future(hub.wait_quiescent())
        # Keep the wire busy: quiescence must not be declared yet.
        for _ in range(3):
            await asyncio.sleep(0.05)
            a.send({"kind": "msg", "src": "a", "dst": "b",
                    "payload": None, "send_vt": 0, "deliver_vt": 0})
            assert not waiter.done()
        await asyncio.wait_for(waiter, 5)  # silence finally settles it
        await a.close()
        await b.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())


def test_disconnect_marks_node_dead_and_drops_its_frames():
    async def scenario():
        hub, server, port = await start_hub(["a", "b"], stall=0.15)
        a, b = FakeNode("a"), FakeNode("b")
        await a.connect(port)
        await b.connect(port)
        await asyncio.wait_for(hub.wait_connected(), 5)
        await b.close()  # crash
        await asyncio.sleep(0.05)
        assert hub.dead == {"b"}
        # Frames to the dead node are dropped, not an error.
        a.send({"kind": "msg", "src": "a", "dst": "b",
                "payload": None, "send_vt": 0, "deliver_vt": 0})
        await asyncio.sleep(0.05)
        assert hub.dropped_to_dead == 1
        # The degraded-quiescence stall window lets the run finalize even
        # though 'a' never reports done (it may wait on 'b' forever).
        await asyncio.wait_for(hub.wait_quiescent(), 5)
        a.send({"kind": "final", "node": "a", "record": {}})
        await asyncio.wait_for(hub.wait_finals(), 5)
        assert set(hub.finals) == {"a"}
        await a.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())
