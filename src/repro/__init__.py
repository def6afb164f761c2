"""repro — coordinated exception handling in distributed object systems.

A from-scratch Python reproduction of

    J. Xu, A. Romanovsky and B. Randell,
    "Coordinated Exception Handling in Distributed Object Systems:
     from Model to System Implementation", ICDCS 1998.

Its subpackages:

* :mod:`repro.core` — the CA-action exception model, exception graphs, the
  coordinated resolution algorithm, the exception-signalling algorithm and
  the baseline algorithms it is compared against;
* :mod:`repro.simkernel` — a deterministic discrete-event simulation kernel;
* :mod:`repro.net` — the message-passing substrate (nodes, FIFO links,
  latency models, fault injection);
* :mod:`repro.objects` — external atomic objects with transactions;
* :mod:`repro.runtime` — the distributed CA-action run-time system, its
  life-cycle event kinds and its run metrics;
* :mod:`repro.productioncell` — the production-cell case study;
* :mod:`repro.analysis` — analytic bounds and latency histograms;
* :mod:`repro.explore` — the systematic fault-space explorer;
* :mod:`repro.workload` — traffic generation, admission control and
  capacity measurement over a shared partition pool;
* :mod:`repro.bench` — experiment harness reproducing the paper's figures;
* :mod:`repro.real` — the same scenarios across real OS processes.

The eight names in ``__all__`` (every subpackage above except
:mod:`repro.productioncell`, :mod:`repro.bench` and :mod:`repro.real`)
are attributes of
``repro`` itself, each imported on first access; import the others by
their full name.  No subpackage is imported by ``import repro``.
"""

from ._lazy import attach

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "core",
    "explore",
    "net",
    "objects",
    "runtime",
    "simkernel",
    "workload",
    "__version__",
]

__getattr__, __dir__, _ = attach(__name__, {
    name: () for name in __all__ if name != "__version__"})
