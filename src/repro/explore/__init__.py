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
* :mod:`~repro.explore.trace` — byte-identical canonical traces and
  digests for deterministic replay checking;
* :mod:`~repro.explore.explorer` — :class:`Explorer`, the budgeted sweep
  (also exposed as the scenario-engine workload ``"explore"``); every
  case is judged by :func:`repro.core.oracles.check` over the record of
  a :class:`~repro.runtime.monitor.InvariantMonitor`;
* :mod:`~repro.explore.shrink` — delta-debugging reduction of a failing
  plan to a minimal reproducer, emitted as a ready-to-paste pytest;
* :mod:`~repro.explore.mutate` — :class:`PlanMutator`, seeded
  deterministic mutations of existing plans;
* :mod:`~repro.explore.corpus` — :class:`CorpusSearch`, coverage-guided
  generational search steered by trace-digest novelty over a persisted
  :class:`Corpus` (also the scenario-engine workload ``"explore_corpus"``
  and the ``python -m repro explore`` command).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "corpus": [
        "Corpus", "CorpusEntry", "CorpusSearch", "CorpusSearchReport",
        "run_plans_chunk",
    ],
    "explorer": ["CaseResult", "Explorer", "ExplorationReport", "run_case"],
    "generator": ["FaultPlanGenerator"],
    "mutate": ["PlanMutator"],
    "plan": ["ExplorationPlan"],
    "shrink": ["ShrinkResult", "shrink_plan", "to_pytest_source"],
    "targets": ["TARGETS", "ExplorationTarget"],
    "trace": ["TraceRecorder", "canonical_trace", "trace_digest"],
})
