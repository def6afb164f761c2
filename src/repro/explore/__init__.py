"""Systematic fault-space exploration with deterministic replay.

The paper's correctness claims — every participant resolves to the same
covering exception, no thread is left stranded suspended, nested abortion
is atomic — hold over *all* legal message timings and schedules, not just
the ones the hand-written scenarios happen to produce.  This package
mechanizes the search over that space:

* :mod:`~repro.explore.plan` — :class:`ExplorationPlan`, a serializable
  ``(fault directives, schedule-perturbation seed)`` pair; every run is a
  pure function of ``(target, plan)``;
* :mod:`~repro.explore.generator` — :class:`FaultPlanGenerator`, seeded
  sampling of plans from the drop/corrupt/delay/crash vocabulary;
* :mod:`~repro.explore.targets` — the scenario systems under exploration;
* :mod:`~repro.explore.trace` — each case's canonical trace, rendered
  from the ``repro.obs`` record log its case attaches, and its digest
  for deterministic replay checking;
* :mod:`~repro.explore.explorer` — :class:`Explorer`, the budgeted sweep
  (also exposed as the scenario-engine workload ``"explore"``); every
  case is judged by :func:`repro.core.oracles.check` over the record of
  a :class:`~repro.runtime.monitor.InvariantMonitor`;
* :mod:`~repro.explore.shrink` — delta-debugging reduction of a failing
  plan to a minimal reproducer, emitted as a ready-to-paste pytest
  (``python -m repro explore run --reproducers DIR`` writes them).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "explorer": ["CaseResult", "Explorer", "ExplorationReport", "run_case"],
    "generator": ["FaultPlanGenerator"],
    "plan": ["ExplorationPlan"],
    "shrink": ["ShrinkResult", "shrink_plan", "to_pytest_source"],
    "targets": ["TARGETS", "ExplorationTarget"],
    "trace": ["canonical_trace", "trace_digest"],
})
