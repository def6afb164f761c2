"""Distributed CA-action runtime (the paper's prototype architecture, Figure 8).

Each participating thread runs on its own node with a copy of the run-time
system; the runtime provides nested action entry/exit, raising and
signalling of exceptions, abortion of nested actions, handler dispatch, and
the coordination protocols of :mod:`repro.core` executed over the simulated
network of :mod:`repro.net`.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "config": ["ALGORITHMS", "RuntimeConfig"],
    "context": ["ProgramContext", "RoleContext"],
    "dispatcher": ["Dispatcher"],
    "effects": ["PartitionEffectInterpreter"],
    "frames": ["ActionFrame", "FrameStack", "PendingAbort"],
    "lifecycle": ["ActionLifecycle"],
    "partition": ["Partition"],
    "report": ["ActionReport", "ActionStatus"],
    "system": ["DistributedCASystem", "SystemConfigurationError"],
})
