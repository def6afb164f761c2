"""Message-passing substrate: nodes, network, latency models, fault injection.

This package models the distributed half of the paper's prototype
architecture (Figure 8): one node per action participant, a message-passing
subsystem based on asynchronous calls, per-node cyclic receive buffers, and
configurable message latency (the ``Tmmax`` parameter of the experiments).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "faults": ["FaultPlan", "FaultStatistics"],
    "latency": [
        "ConstantLatency", "LatencyModel", "PerLinkLatency",
        "TruncatedExponentialLatency", "UniformLatency",
    ],
    "message": ["Envelope"],
    "network": ["MessageStatistics", "Network", "UnknownNodeError"],
    "node": ["Node"],
    "rpc": ["RpcEndpoint", "RpcReply", "RpcRequest"],
})
