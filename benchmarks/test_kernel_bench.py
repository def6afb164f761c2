"""Opt-in checks of the kernel and network microbenchmarks.

Runs tiny configurations so the assertions are about structure and sanity,
not speed; the real numbers are the isolated probes of
``benchmarks/perf/`` (``simkernel.events_per_s``, ``net.msgs_per_s``).
"""

from __future__ import annotations

from repro.bench.kernelbench import (bench_event_throughput,
                                     bench_message_delivery)


class TestKernelBenchmarks:
    def test_event_throughput_shape(self):
        row = bench_event_throughput(n_events=2_000, repeats=1)
        assert row["events"] == 2_000
        assert row["wall_seconds"] > 0
        assert row["events_per_second"] > 0

    def test_message_delivery_shape(self):
        row = bench_message_delivery(n_messages=500, repeats=1)
        assert row["messages"] == 500
        assert row["messages_per_second"] > 0
