"""The per-layer ledger: profile pass, count pass and isolated probes.

Layers are the ``src/repro`` subpackages plus ``python`` (the standard
library, builtins and the harness's own frames).  Everything here watches
the program from outside — ``cProfile`` around a repetition, an ambient
``obs.capture`` around another, and public functions timed in isolation —
so no file under ``src/`` changes to be measured.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pickle
import pstats
import re
import statistics
import tempfile
import time
from collections import Counter
from typing import Any, Callable, Dict, Tuple

from workloads import Params, Workload

LAYERS = ("simkernel", "net", "core", "objects", "runtime", "workload",
          "explore", "obs", "analysis", "bench", "python")

_LAYER_OF_PATH = re.compile(r"[/\\]repro[/\\]([a-z_]+)[/\\]")

#: Lock-manager transitions counted as ``objects.lock_ops_per_unit``.
LOCK_KINDS = ("lock.granted", "lock.waiting", "lock.deadlock",
              "lock.released")


def layer_of(path: str) -> str:
    """The layer a profiled function's file belongs to.

    ``.../repro/<subpackage>/...`` maps to the subpackage when it is a
    named layer; everything else — the standard library, builtins (``~``),
    ``repro``'s top-level modules, this harness — is ``python``.
    """
    match = _LAYER_OF_PATH.search(path)
    if match and match.group(1) in LAYERS[:-1]:
        return match.group(1)
    return "python"


# ----------------------------------------------------------------------
# Profile pass
# ----------------------------------------------------------------------
def profile_pass(run: Callable[[], Any]) -> Dict[str, Any]:
    """One repetition under ``cProfile``, bucketed by layer.

    Returns ``{"wall", "self_s": {layer: s}, "calls": {layer: n}}``.
    ``calls`` counts every call including generator resumes, which
    ``cProfile`` attributes to the generator's defining function.
    """
    profiler = cProfile.Profile()
    gc.collect()
    start = time.perf_counter()
    profiler.runcall(run)
    wall = time.perf_counter() - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (path, _line, _name), (_cc, ncalls, tottime, _ct, _callers) \
            in pstats.Stats(profiler).stats.items():
        layer = layer_of(path)
        self_s[layer] += tottime
        calls[layer] += ncalls
    return {"wall": wall, "self_s": self_s, "calls": calls}


# ----------------------------------------------------------------------
# Count pass
# ----------------------------------------------------------------------
def count_pass(workload: Workload, params: Params,
               units: int) -> Dict[str, float]:
    """One repetition under ``obs.capture(ObsConfig.full())``, counted.

    Event counts are divided by ``units``, the repetition's concluded units.
    """
    from repro import obs
    with obs.capture(obs.ObsConfig.full()) as scope:
        workload.body(params)
    kinds: Counter = Counter()
    resolutions = 0
    for observation in scope.observations:
        for event in observation.events or ():
            kind = event["kind"]
            kinds[kind] += 1
            # "resolved" is probed per delivery; the resolver's own
            # delivery marks one resolution.
            if kind == "action.resolved" and \
                    event.get("resolver") == event.get("thread"):
                resolutions += 1
    submitted = kinds["job.submitted"]
    return {
        "simkernel.events_per_unit": kinds["kernel.step"] / units,
        "net.msgs_per_unit": kinds["message.sent"] / units,
        "runtime.participations_per_unit": kinds["action.entered"] / units,
        "core.raises_per_unit": kinds["action.raised"] / units,
        "core.resolutions_per_unit": resolutions / units,
        "objects.lock_ops_per_unit":
            sum(kinds[kind] for kind in LOCK_KINDS) / units,
        "workload.queued_share": (kinds["admission.queued"] / submitted
                                  if submitted else 0.0),
        # What the default ObsConfig records: everything but the opt-in
        # per-step kernel records.
        "obs.events_per_unit":
            (sum(kinds.values()) - kinds["kernel.step"]) / units,
    }


# ----------------------------------------------------------------------
# Isolated probes
# ----------------------------------------------------------------------
def _median_seconds(run: Callable[[], Any], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        run()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _two_thread_action(iterations: int, raising: bool):
    """A two-thread CA action performed ``iterations`` times, no driver."""
    from repro.core import (CAActionDefinition, HandlerMap, HandlerResult,
                            RoleDefinition, internal)
    from repro.core.exception_graph import generate_full_graph
    from repro.net import ConstantLatency
    from repro.runtime import DistributedCASystem, RuntimeConfig

    fault = internal("probe_fault")
    system = DistributedCASystem(RuntimeConfig(resolution_time=0.05),
                                 latency=ConstantLatency(0.02))
    system.add_threads(["P1", "P2"])

    def handler(ctx):
        yield ctx.delay(0.1)
        return HandlerResult.success()

    def make_role(raises: bool):
        def body(ctx):
            yield ctx.delay(1.0)
            if raises:
                ctx.raise_exception(fault)
        return body

    roles = [RoleDefinition("r1", make_role(raising),
                            HandlerMap(default_handler=handler)),
             RoleDefinition("r2", make_role(False),
                            HandlerMap(default_handler=handler))]
    system.define_action(CAActionDefinition(
        "Probe", roles, internal_exceptions=[fault],
        graph=generate_full_graph([fault], action_name="Probe")))
    system.bind("Probe", {"r1": "P1", "r2": "P2"})

    def make_program(role):
        def program(ctx):
            for _ in range(iterations):
                yield from ctx.perform_action("Probe", role)
        return program

    system.spawn("P1", make_program("r1"))
    system.spawn("P2", make_program("r2"))
    return system


def _action_us(iterations: int, raising: bool, repeats: int) -> float:
    def run():
        _two_thread_action(iterations, raising).run_to_completion()
    return _median_seconds(run, repeats) / iterations * 1e6


def _lock_cycle_us(cycles: int, repeats: int) -> float:
    from repro.objects.locks import LockManager, LockMode
    from repro.simkernel.kernel import Kernel

    def run():
        manager = LockManager(Kernel())
        for i in range(cycles):
            transaction = f"t{i}"
            manager.acquire("account", transaction, LockMode.EXCLUSIVE)
            manager.release_all(transaction)
    return _median_seconds(run, repeats) / cycles * 1e6


def _hist_record_ns(records: int, repeats: int) -> float:
    from repro.analysis.histograms import LatencyHistogram
    values = [0.001 * (1 + i % 5000) for i in range(records)]

    def run():
        histogram = LatencyHistogram()
        record = histogram.record
        for value in values:
            record(value)
    return _median_seconds(run, repeats) / records * 1e9


def _runtime_build_ms(n_threads: int, repeats: int) -> float:
    from repro.net import ConstantLatency
    from repro.runtime import DistributedCASystem, RuntimeConfig

    def run():
        system = DistributedCASystem(RuntimeConfig(),
                                     latency=ConstantLatency(0.02))
        system.add_threads([f"B{i:02d}" for i in range(n_threads)])
    return _median_seconds(run, repeats) * 1e3


def _graph_probe(seed: int, resolve_calls: int,
                 repeats: int) -> Tuple[float, float]:
    """``(graph_build_ms, resolve_us)`` on the 794-node wide graph."""
    from repro.bench.scenarios import run_graph_microbench
    rows = [run_graph_microbench(n_primitives=12, max_level=3,
                                 resolve_calls=resolve_calls,
                                 naive_calls=0, seed=seed)
            for _ in range(repeats)]
    return (statistics.median(r["build_seconds"] for r in rows) * 1e3,
            statistics.median(r["resolve_us_per_call"] for r in rows))


def _sharding_probe(seed: int, n_instances: int,
                    repeats: int) -> Dict[str, float]:
    """Pool cost on a small fixed plan: in-process shards vs 2 workers."""
    from repro.workload.sharding import (ShardedPool, ShardPlan,
                                         merge_shard_snapshots)
    workers = 2
    plan = ShardPlan(seed=seed, n_shards=4, n_instances=n_instances,
                     offered_load=8.0)
    inline = ShardedPool(workers=0).run(plan)
    snapshots = inline["per_shard"]
    merge_s = _median_seconds(lambda: merge_shard_snapshots(snapshots),
                              repeats)
    busy_s = inline["wall_seconds"]
    pool_s = statistics.median(
        ShardedPool(workers=workers).run(plan)["wall_seconds"]
        for _ in range(repeats))
    return {
        "sharding.shard_busy_s": busy_s,
        "sharding.pool_overhead_s": pool_s - busy_s / workers,
        "sharding.parallel_efficiency": busy_s / (workers * pool_s),
        "sharding.result_bytes_per_shard": statistics.mean(
            len(pickle.dumps(snapshot)) for snapshot in snapshots),
        "sharding.merge_ms": merge_s * 1e3,
    }


def _obs_probe(seed: int, n_instances: int, repeats: int,
               work_dir: str) -> Dict[str, float]:
    """Cost of the default capture, and of exporting what it recorded."""
    from repro import obs
    from repro.workload.scenarios import run_mixed_traffic

    def plain():
        run_mixed_traffic(seed, n_instances=n_instances)

    scopes = []

    def observed():
        with obs.capture(obs.ObsConfig()) as scope:
            run_mixed_traffic(seed, n_instances=n_instances)
        scopes[:] = [scope]

    off_s = _median_seconds(plain, repeats)
    on_s = _median_seconds(observed, repeats)
    os.makedirs(work_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as directory:
        start = time.perf_counter()
        scopes[0].write_jsonl(os.path.join(directory, "events.jsonl"))
        scopes[0].write_chrome_trace(os.path.join(directory, "trace.json"))
        export_s = time.perf_counter() - start
    return {"obs.enabled_overhead": on_s / off_s,
            "obs.export_ms": export_s * 1e3}


def isolated_probes(seed: int, quick: bool, work_dir: str
                    ) -> Dict[str, float]:
    """Each layer timed on its own, the same fixed sizes on every workload.

    ``seed`` only feeds the probes that draw inputs (resolve samples,
    arrivals); sizes never depend on it.
    """
    from repro.bench.kernelbench import (bench_event_throughput,
                                         bench_message_delivery)
    scale, repeats = (10, 1) if quick else (1, 3)
    build_ms, resolve_us = _graph_probe(seed, 200 // scale, repeats)
    metrics = {
        "simkernel.events_per_s": statistics.median(
            bench_event_throughput(100_000 // scale,
                                   repeats=1)["events_per_second"]
            for _ in range(repeats)),
        "net.msgs_per_s": statistics.median(
            bench_message_delivery(20_000 // scale,
                                   repeats=1)["messages_per_second"]
            for _ in range(repeats)),
        "core.resolve_us": resolve_us,
        "core.graph_build_ms": build_ms,
        "runtime.build_ms": _runtime_build_ms(64, repeats),
        "runtime.action_us_clean": _action_us(300 // scale, False, repeats),
        "runtime.action_us_recovered": _action_us(300 // scale, True,
                                                  repeats),
        "objects.lock_cycle_us": _lock_cycle_us(20_000 // scale, repeats),
        "analysis.hist_record_ns": _hist_record_ns(200_000 // scale,
                                                   repeats),
    }
    metrics.update(_sharding_probe(seed, 1600 // scale, repeats))
    metrics.update(_obs_probe(seed, 600 // scale, repeats, work_dir))
    return metrics
