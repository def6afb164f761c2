"""Core CA-action exception model and coordination algorithms.

This package contains the paper's primary contribution, independent of any
particular transport or simulator:

* the exception vocabulary (internal, interface, µ, ƒ, universal, abortion);
* exception graphs with resolution, generation and simplification;
* CA-action and role definitions, handler maps;
* the per-thread protocol state (N/X/S, ``LEi``, ``SAi``);
* the coordinated exception handling and resolution algorithm
  (Section 3.3.2) and the exception signalling algorithm (Section 3.4),
  both as pure message-driven state machines;
* the Campbell–Randell and Romanovsky-96 baseline algorithms.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "action": [
        "ActionDefinitionError", "ActionRegistry", "CAActionDefinition",
        "RoleDefinition",
    ],
    "effects": [
        "AbortNested", "ChargeTime", "Effect", "HandleResolved",
        "InformObjects", "InterruptRole", "SendTo",
        "count_messages", "sends",
    ],
    "exception_graph": [
        "CompiledGraphIndex", "ExceptionGraph", "ExceptionGraphError",
        "generate_full_graph", "graph_statistics",
        "prune_impossible_combinations",
    ],
    "exceptions": [
        "ABORTION", "ActionAborted", "ActionFailure", "ExceptionDescriptor",
        "ExceptionKind", "FAILURE", "NO_EXCEPTION", "RaisedException",
        "RaisedRecord", "UNDO", "UNIVERSAL", "interface", "internal",
    ],
    "handlers": [
        "Handler", "HandlerMap", "HandlerResult", "HandlerStatus",
        "default_abort_handler",
    ],
    "messages": [
        "ApplicationMessage", "CommitMessage", "EnterActionMessage",
        "ExceptionMessage", "ExitConfirmMessage", "ExitReadyMessage",
        "ProtocolMessage", "SuspendedMessage", "ToBeSignalledMessage",
    ],
    "resolution": [
        "CoordinatorBase", "ProtocolError", "ResolutionCoordinator",
    ],
    "signalling": [
        "PerformUndo", "SignalCoordinator", "SignalOutcome",
        "SignalProtocolError",
    ],
    "state": [
        "ActionContext", "ContextStack", "LocalExceptionList", "ThreadState",
        "max_thread", "min_thread", "thread_order_key",
    ],
})
