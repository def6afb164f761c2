"""``repro.real`` — the real-process execution backend.

Runs the same runtime protocol code as the sim kernel across real OS
processes: one process per partition-pool node, length-prefixed framed
messages over localhost sockets (the parent hub is an asyncio server;
children use a ``selectors``-based pump so the discrete-event kernel can
interleave with socket I/O), wall-clock pacing standing in for virtual
time, and crash injection by killing a child process.

:class:`~repro.real.backend.RealBackend` boots a real-capable scenario of
:data:`repro.bench.engine.REGISTRY` across processes, bridges
``repro.obs`` events back, merges monitor records, and evaluates the
invariant oracles at the hub.  Each child builds its node with the
scenario's node builder and sends the wire traffic through
:class:`~repro.net.realnet.RealNetwork`.  The same builder runs all-local
on the sim kernel through :func:`repro.bench.scenarios.run_sim`, which
returns the same :class:`~repro.bench.scenarios.RealRunResult` shape (this
is what the backend-parity tests compare).
"""

from __future__ import annotations

from .._lazy import attach

# Lazy, so a child process importing ``repro.real.host`` does not
# load the parent's asyncio hub and multiprocessing launcher.
__getattr__, __dir__, __all__ = attach(__name__, {
    "backend": ["RealBackend", "RealBackendError"],
})
