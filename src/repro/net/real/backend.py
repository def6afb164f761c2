"""Boot, drive, and evaluate a real-backend run.

:class:`RealBackend` spawns one OS process per scenario node (via
``multiprocessing``'s *spawn* context so children re-import the code
tree instead of forking kernel state), runs the parent hub, enforces a
hard wall-clock timeout, and merges the children's ``final`` records
into one oracle evaluation.  :func:`assemble_result` is shared with
:func:`~repro.net.real.scenarios.run_sim` so both backends produce the
identical :class:`RealRunResult` shape — the object the parity tests
compare field by field.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...core import oracles
from ...core.oracles import OracleViolation
from ..network import MessageStatistics
from .host import run_node
from .hub import Hub


class RealBackendError(RuntimeError):
    """The real backend could not complete a run (timeout, dead fleet...)."""


@dataclass
class RealRunResult:
    """Outcome of one scenario run, identical in shape on both backends."""

    scenario: str
    backend: str
    params: Dict[str, Any]
    #: Oracle violations over the merged records ([] == run passed).
    violations: List[OracleViolation]
    #: (action, status) -> number of concluded participations.
    outcomes: Dict[Tuple[str, str], int]
    #: Merged message-statistics snapshot.
    stats: Dict[str, Any]
    #: The raw per-node records ("sim" is the single key on the sim backend).
    records: Dict[str, Dict[str, Any]]
    #: Nodes whose process died / connection dropped before finalizing.
    crashed: List[str] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


# ----------------------------------------------------------------------
# Record merging and oracle evaluation (hub side)
# ----------------------------------------------------------------------
#: Record fields that are lists (concatenated across nodes) and fields
#: that map a key to a list (concatenated per key).
_LIST_FIELDS = ("quiescence", "counters", "finished_txns", "obs_events")
_KEYED_LIST_FIELDS = ("resolutions", "locks_held", "locks_waiting")


def merge_records(records: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-node records into one system-wide view for the oracles."""
    merged: Dict[str, Any] = {field: [] for field in _LIST_FIELDS}
    merged.update({field: defaultdict(list) for field in _KEYED_LIST_FIELDS})
    outcomes: Dict[Any, int] = defaultdict(int)
    stats = MessageStatistics()
    for _, record in sorted(records.items()):
        for field in _LIST_FIELDS:
            merged[field].extend(record.get(field, ()))
        for field in _KEYED_LIST_FIELDS:
            for key, entries in record.get(field, {}).items():
                merged[field][key].extend(entries)
        for key, count in record.get("outcomes", {}).items():
            outcomes[key] += count
        stats.merge(record.get("stats", {}))
    for field in _KEYED_LIST_FIELDS:
        merged[field] = dict(merged[field])
    merged["outcomes"] = dict(outcomes)
    merged["stats"] = stats.snapshot()
    return merged


def evaluate_merged(merged: Dict[str, Any],
                    require_liveness: bool = True) -> List[OracleViolation]:
    """The InvariantMonitor's oracle catalogue over a merged record."""
    violations: List[OracleViolation] = []
    violations.extend(oracles.check_agreement(merged["resolutions"]))
    violations.extend(oracles.check_exactly_one_outcome(
        merged["outcomes"], require_completion=require_liveness))
    if require_liveness:
        violations.extend(
            oracles.check_no_stranded_thread(merged["quiescence"]))
        violations.extend(
            oracles.check_abortion_atomic(merged["quiescence"]))
    if merged["counters"]:
        violations.extend(oracles.check_no_lost_updates(merged["counters"]))
    if merged["locks_held"] or merged["locks_waiting"]:
        violations.extend(oracles.check_locks_released(
            merged["locks_held"], merged["locks_waiting"],
            merged["finished_txns"]))
    return violations


def outcome_counts(merged: Dict[str, Any]) -> Dict[Tuple[str, str], int]:
    """(action, status) conclusion counts from the bridged obs events."""
    counts: Counter = Counter()
    for event in merged["obs_events"]:
        if event.get("kind") == "action.concluded":
            counts[(event.get("action"), event.get("status"))] += 1
    return dict(counts)


def assemble_result(scenario: str, backend: str,
                    records: Dict[str, Dict[str, Any]],
                    crashed: List[str], wall_time: float,
                    params: Optional[Dict[str, Any]] = None) -> RealRunResult:
    merged = merge_records(records)
    return RealRunResult(
        scenario=scenario, backend=backend, params=dict(params or {}),
        # A run with injected crashes is allowed to strand participations
        # (the paper's liveness guarantees assume delivery).
        violations=evaluate_merged(merged, require_liveness=not crashed),
        outcomes=outcome_counts(merged), stats=merged["stats"],
        records=records, crashed=sorted(crashed), wall_time=wall_time)


# ----------------------------------------------------------------------
# The process-spawning runner
# ----------------------------------------------------------------------
class RealBackend:
    """Run real-capable registered scenarios, one OS process per node."""

    def __init__(self, time_scale: float = 0.05, wall_timeout: float = 120.0,
                 settle: float = 0.5, stall: float = 5.0) -> None:
        #: Wall seconds per unit of virtual time in the children.
        self.time_scale = time_scale
        #: Hard cap on the whole run; on expiry every child is killed and
        #: :class:`RealBackendError` is raised.
        self.wall_timeout = wall_timeout
        self.settle = settle
        #: Degraded-quiescence silence window after a crash (see Hub).
        self.stall = stall

    # ------------------------------------------------------------------
    def run(self, scenario: str,
            kill: Optional[Tuple[str, float]] = None,
            **overrides: Any) -> RealRunResult:
        """Run ``scenario``; ``kill=(node, wall_delay)`` injects a crash.

        ``overrides`` is one grid point of the registered scenario; it is
        validated and defaulted before any process is spawned.
        """
        from ...bench.engine import REGISTRY

        spec = REGISTRY.get(scenario)
        spec.require_nodes()
        params = spec.bind_point(overrides)
        return asyncio.run(self._run(spec, params, kill))

    # ------------------------------------------------------------------
    async def _run(self, spec, params: Dict[str, Any],
                   kill: Optional[Tuple[str, float]]) -> RealRunResult:
        loop = asyncio.get_running_loop()
        started_at = time.monotonic()
        hub = Hub(spec.nodes, settle=self.settle, stall=self.stall)
        server = await asyncio.start_server(hub.handle_client,
                                            "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        context = multiprocessing.get_context("spawn")
        processes = {}
        for node in spec.nodes:
            process = context.Process(
                target=_child_main,
                args=("127.0.0.1", port, spec.name, node, params,
                      self.time_scale, list(sys.path)),
                daemon=True, name=f"repro-{spec.name}-{node}")
            process.start()
            processes[node] = process
        reaper = loop.create_task(self._reap_dead(hub, processes))
        try:
            await asyncio.wait_for(self._drive(hub, processes, kill),
                                   timeout=self.wall_timeout)
        except asyncio.TimeoutError:
            raise RealBackendError(
                f"real backend run of {spec.name!r} exceeded the "
                f"{self.wall_timeout}s wall-clock timeout "
                f"(done={sorted(hub.done)}, dead={sorted(hub.dead)}, "
                f"finals={sorted(hub.finals)})")
        finally:
            reaper.cancel()
            server.close()
            await server.wait_closed()
            for process in processes.values():
                if process.is_alive():
                    process.kill()
            for process in processes.values():
                process.join(timeout=5)
        if not hub.finals:
            raise RealBackendError(
                f"no node of {spec.name!r} returned a final record "
                f"(dead={sorted(hub.dead)})")
        return assemble_result(spec.name, "real", hub.finals, sorted(hub.dead),
                               time.monotonic() - started_at, params=params)

    # ------------------------------------------------------------------
    async def _drive(self, hub: Hub, processes: Dict[str, Any],
                     kill: Optional[Tuple[str, float]]) -> None:
        await hub.wait_connected()
        hub.broadcast({"kind": "start"})
        killer = None
        if kill is not None:
            node, delay = kill
            killer = asyncio.get_running_loop().create_task(
                self._kill_later(processes, node, delay))
        try:
            await hub.wait_quiescent()
            hub.broadcast({"kind": "finalize"})
            await hub.wait_finals()
        finally:
            if killer is not None:
                killer.cancel()

    async def _kill_later(self, processes: Dict[str, Any], node: str,
                          delay: float) -> None:
        await asyncio.sleep(delay)
        process = processes.get(node)
        if process is not None and process.is_alive():
            process.kill()

    async def _reap_dead(self, hub: Hub, processes: Dict[str, Any]) -> None:
        """Mark nodes whose process died without closing the socket."""
        while True:
            await asyncio.sleep(0.1)
            for node, process in processes.items():
                if not process.is_alive() and node not in hub.finals:
                    hub.mark_dead(node)


def _child_main(host: str, port: int, scenario: str, node: str,
                params: Dict[str, Any], time_scale: float,
                parent_path: List[str]) -> None:
    """Spawn target: restore the parent's import path, then run the node."""
    for entry in parent_path:
        if entry not in sys.path:
            sys.path.append(entry)
    run_node(host, port, scenario, node, params, time_scale)
