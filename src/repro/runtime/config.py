"""Configuration of the distributed CA-action runtime.

The experiments of Section 5 are parameterised by three durations: the
message-passing time ``Tmmax`` (a property of the network's latency model),
the abortion time ``Tabo`` charged when a nested action is aborted, and the
resolution time ``Treso`` charged by the thread(s) running the resolution
procedure.  Handler durations (``Δ``) are expressed by the handler bodies
themselves via ``ctx.delay``.

The configuration also selects the resolution algorithm, so the comparison
experiment (Figures 12/13) swaps only this one knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

from ..core.resolution import CoordinatorBase, ResolutionCoordinator


def _campbell_randell(thread_id: str) -> CoordinatorBase:
    from ..core.baselines import CampbellRandellCoordinator
    return CampbellRandellCoordinator(thread_id)


def _romanovsky96(thread_id: str) -> CoordinatorBase:
    from ..core.baselines import Romanovsky96Coordinator
    return Romanovsky96Coordinator(thread_id)


#: Registry of resolution algorithms selectable by name: a per-thread
#: coordinator factory each (the baselines load on first use).
ALGORITHMS: Dict[str, Callable[[str], CoordinatorBase]] = {
    "ours": ResolutionCoordinator,
    "campbell-randell": _campbell_randell,
    "romanovsky96": _romanovsky96,
}


@dataclass
class RuntimeConfig:
    """Tunable parameters of the CA-action runtime.

    Attributes
    ----------
    algorithm:
        Name of the resolution algorithm: ``"ours"`` (the paper's new
        algorithm), ``"campbell-randell"`` or ``"romanovsky96"``.
    resolution_time:
        ``Treso`` — virtual time charged per invocation of the resolution
        procedure.
    abort_time:
        ``Tabo`` — virtual time charged per aborted nested action
        (in addition to whatever the abortion handler itself does).
    entry_timeout:
        Safety bound on waiting for the other participants at an action's
        entry point; ``0`` disables the timeout.  Exceeding it raises a
        ``RuntimeError`` — it indicates a mis-structured program, not a
        protocol failure.
    buffer_capacity:
        Capacity of each partition's cyclic receive buffer.
    deliver_self_messages:
        If True, protocol messages a thread would send to itself are
        delivered locally (the algorithms never need this; kept for
        experimentation).
    """

    algorithm: str = "ours"
    resolution_time: float = 0.0
    abort_time: float = 0.0
    entry_timeout: float = 0.0
    buffer_capacity: int = 4096
    deliver_self_messages: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {sorted(ALGORITHMS)}")
        if self.resolution_time < 0 or self.abort_time < 0:
            raise ValueError("times must be non-negative")
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be at least 1")

    def make_coordinator(self, thread_id: str) -> CoordinatorBase:
        """Instantiate the configured resolution algorithm for one thread."""
        return ALGORITHMS[self.algorithm](thread_id)

    def charge_duration(self, kind: str, count: int = 1) -> float:
        """Map a :class:`~repro.core.effects.ChargeTime` effect to a duration."""
        if kind == "resolution":
            return self.resolution_time * count
        if kind == "abort":
            return self.abort_time * count
        raise ValueError(f"unknown charge kind {kind!r}")
