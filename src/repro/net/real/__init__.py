"""``repro.net.real`` — the real-process transport backend.

Runs the same runtime protocol code as the sim kernel across real OS
processes: one process per partition-pool node, length-prefixed framed
messages over localhost sockets (the parent hub is an asyncio server;
children use a ``selectors``-based pump so the discrete-event kernel can
interleave with socket I/O), wall-clock pacing standing in for virtual
time, and crash injection by killing a child process.

Entry points:

* :class:`~repro.net.real.backend.RealBackend` — boot a real-capable
  scenario of :data:`repro.bench.engine.REGISTRY` across processes,
  bridge ``repro.obs`` events back, merge monitor records, and evaluate
  the invariant oracles at the hub;
* :func:`~repro.net.real.scenarios.run_sim` — the same node builder on
  the deterministic sim kernel in one process, returning the same result
  shape (this is what the backend-parity tests compare against).
"""

from __future__ import annotations

from .backend import RealBackend, RealBackendError, RealRunResult
from .scenarios import run_real, run_sim

__all__ = ["RealBackend", "RealBackendError", "RealRunResult",
           "run_real", "run_sim"]
