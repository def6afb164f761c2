"""Boot, drive, and evaluate a real-backend run.

:class:`RealBackend` spawns one OS process per scenario node (via
``multiprocessing``'s *spawn* context so children re-import the code
tree instead of forking kernel state), runs the parent hub, enforces a
hard wall-clock timeout, and merges the children's ``final`` records
into one :func:`repro.core.oracles.check`.  It judges them with
:func:`~repro.bench.scenarios.assemble_result`, as
:func:`~repro.bench.scenarios.run_sim` does, so both backends produce the
identical :class:`~repro.bench.scenarios.RealRunResult` shape — the
object the parity tests compare field by field.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from ..bench.engine import REGISTRY
from ..bench.scenarios import RealRunResult, assemble_result
from .host import run_node
from .hub import Hub


class RealBackendError(RuntimeError):
    """The real backend could not complete a run (timeout, dead fleet...)."""


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

        ``overrides`` is one grid point of the registered scenario; it and
        the ``kill`` target are validated, and the point defaulted, before
        any process is spawned.
        """
        spec = REGISTRY.get(scenario)
        spec.require_nodes()
        if kill is not None and kill[0] not in spec.nodes:
            raise ValueError(
                f"kill target {kill[0]!r} is not a node of scenario "
                f"{spec.name!r} (nodes: {', '.join(spec.nodes)})")
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
        process = processes[node]
        if process.is_alive():
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
