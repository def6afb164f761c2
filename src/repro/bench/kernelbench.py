"""Kernel and network microbenchmarks: wall-clock rates below the runtime.

Two measurements of the layers every scenario runs on (simulated
*behaviour* is pinned separately by the conformance fixtures; these only
measure speed):

* **event throughput** — a bare :class:`~repro.simkernel.kernel.Kernel`
  driving a timeout-yielding process: pure schedule/step/resume cost, no
  network or runtime;
* **message delivery rate** — two nodes on a zero-fault network, one
  sender, one draining receiver: the per-message envelope/statistics/
  FIFO-clamp/delivery path on top of the kernel.

Each measurement is the best of ``repeats`` runs, which is the standard
way to suppress scheduler/allocator noise in short benchmarks.  The
end-to-end harness (``benchmarks/perf/``) reports both as its isolated
``simkernel.events_per_s`` and ``net.msgs_per_s`` probes.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict

from ..simkernel.kernel import Kernel

#: Default sizes: large enough for stable timings, small enough that both
#: probes (with repeats) stay in CI-smoke territory.
EVENT_COUNT = 100_000
MESSAGE_COUNT = 20_000
REPEATS = 3


def _best_of(repeats: int, run: Callable[[], Any]) -> float:
    """Best wall-clock of ``repeats`` runs of ``run`` (seconds)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# Event throughput (bare kernel)
# ----------------------------------------------------------------------
def _timeout_loop(kernel: Kernel, count: int):
    for _ in range(count):
        yield kernel.timeout(1.0)


def bench_event_throughput(n_events: int = EVENT_COUNT,
                           repeats: int = REPEATS) -> Dict[str, Any]:
    """Schedule/step/resume cost of the bare kernel, in events/sec.

    One loop iteration is two kernel events (the timeout firing and the
    process rescheduling), so the reported rate counts ``2 ×`` iterations.
    """
    iterations = max(1, n_events // 2)

    def run() -> None:
        kernel = Kernel()
        kernel.process(_timeout_loop(kernel, iterations))
        kernel.run()

    seconds = _best_of(repeats, run)
    events = 2 * iterations
    return {
        "events": events,
        "wall_seconds": seconds,
        "events_per_second": events / seconds if seconds > 0 else 0.0,
    }


# ----------------------------------------------------------------------
# Message delivery rate (network on top of the kernel)
# ----------------------------------------------------------------------
def _sender(network, count: int):
    kernel = network.kernel
    for i in range(count):
        network.send("src", "dst", i)
        yield kernel.timeout(0.001)


def _receiver(network, count: int):
    inbox = network.node("dst").inbox
    for _ in range(count):
        yield inbox.get()


def bench_message_delivery(n_messages: int = MESSAGE_COUNT,
                           repeats: int = REPEATS) -> Dict[str, Any]:
    """Per-message cost of the network delivery path, in messages/sec."""
    from ..net.latency import ConstantLatency
    from ..net.network import Network

    def run() -> None:
        kernel = Kernel()
        network = Network(kernel, latency=ConstantLatency(0.01))
        network.add_node("src")
        network.add_node("dst")
        kernel.process(_sender(network, n_messages))
        kernel.process(_receiver(network, n_messages))
        kernel.run()

    seconds = _best_of(repeats, run)
    return {
        "messages": n_messages,
        "wall_seconds": seconds,
        "messages_per_second": n_messages / seconds if seconds > 0 else 0.0,
    }
