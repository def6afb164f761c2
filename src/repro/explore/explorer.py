"""The fault-space explorer: budgeted sweeps of ``(target, plan)`` runs.

One *case* is one deterministic run: build the target with the plan's
fault plan and schedule seed, run to quiescence, evaluate the oracle
catalogue, and digest the canonical trace.  :class:`Explorer` sweeps a
seeded budget of generated plans; :func:`explore_chunk` is the
module-level (picklable) runner the scenario engine uses to distribute a
sweep over a process pool — chunk ``[a, b)`` of seed ``s`` runs exactly
the plans the sequential sweep would run at those indices, so the two
execution modes are byte-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .. import obs
from ..core import oracles
from ..core.oracles import OracleViolation
from ..runtime.monitor import InvariantMonitor
from ..runtime.system import collector_paused
from .generator import DEFAULT_KINDS, FaultPlanGenerator
from .plan import ExplorationPlan
from .targets import ExplorationTarget, get_target
from .trace import CASE_PROFILE, canonical_trace, trace_digest


@dataclass
class CaseResult:
    """Outcome of one explored case."""

    index: int
    plan: ExplorationPlan
    digest: str
    completed: bool
    violations: List[OracleViolation]
    stats: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    #: Flight-recorder dump (last-N-events timeline) of a failing run;
    #: ``None`` for passing cases.  Deliberately excluded from the
    #: digest-pinned scenario rows — it rides only on in-process results
    #: and on reproducer records.
    flight: Optional[Dict[str, Any]] = None

    @property
    def failing(self) -> bool:
        return bool(self.violations)

    def describe(self) -> str:
        status = "FAIL" if self.failing else "ok"
        lines = [f"case {self.index} [{status}]: {self.plan.describe()}"]
        lines.extend(f"  {violation}" for violation in self.violations)
        return "\n".join(lines)


def _execute(target: ExplorationTarget, plan: ExplorationPlan,
             algorithm: str, profile: obs.ObsConfig = CASE_PROFILE):
    """One run; returns ``(system, monitor, error)``."""
    system = target.build(plan.make_fault_plan(), tie_seed=plan.tie_seed,
                          algorithm=algorithm)
    monitor = InvariantMonitor(system)
    # The case's one record of the run: its record log is the canonical
    # trace, its flight ring the dump a failing case carries.  Under an
    # ambient obs.capture() this is the capture's observation, widened.
    obs.observe_system(system, profile)
    error: Optional[str] = None
    try:
        # Run to queue exhaustion rather than ``run_to_completion``: a
        # stranded thread must surface as an oracle violation with a full
        # trace, not as a RuntimeError mid-run.
        system.run()
    except Exception as exc:  # noqa: BLE001 — anything the sim surfaces
        error = f"{type(exc).__name__}: {exc}"
    return system, monitor, error


def run_case(target, plan: ExplorationPlan, algorithm: str = "ours",
             baselines: Sequence[str] = (), index: int = -1) -> CaseResult:
    """Run one ``(target, plan)`` case and evaluate every oracle.

    ``baselines`` names additional algorithms (e.g.
    ``"campbell-randell"``, ``"romanovsky96"``) to run the same plan
    against; their per-thread resolved exceptions must agree with the
    primary algorithm's (the differential oracle).  Liveness oracles —
    and the differential comparison, which presumes both runs finished —
    are only required of delivery-preserving plans.

    The cyclic collector is paused for the whole case (build, run, oracles
    and digest) and resumes between cases, so a sweep never defers more
    than one case's cyclic garbage.
    """
    with collector_paused():
        resolved_target = get_target(target)
        system, monitor, error = _execute(resolved_target, plan, algorithm)
        require_liveness = plan.preserves_delivery and error is None
        violations = monitor.check(require_liveness=require_liveness)
        if error is not None:
            violations.append(OracleViolation(
                oracles.NO_CRASH, f"simulation raised {error}"))
        completed = all(
            partition.thread_process is not None
            and partition.thread_process.triggered
            for partition in system.partitions.values())

        if plan.preserves_delivery and error is None:
            for baseline in baselines:
                # Only the resolutions are compared: no canonical trace.
                _, base_monitor, base_error = _execute(
                    resolved_target, plan, baseline,
                    obs.ObsConfig.flight_only())
                if base_error is not None:
                    violations.append(OracleViolation(
                        oracles.DIFFERENTIAL_AGREEMENT,
                        f"{baseline} raised {base_error} on the same plan"))
                    continue
                violations.extend(oracles.check_differential_agreement(
                    oracles.resolved_names(monitor.resolutions),
                    oracles.resolved_names(base_monitor.resolutions),
                    algorithm, baseline))

        digest = trace_digest(canonical_trace(system))
        # Auto-dump the flight recorder for any failing case — oracle
        # violation or crash — so the failure carries its event timeline.
        flight = None
        if violations or error is not None:
            flight = system.observation.flight_dump()
        return CaseResult(index=index, plan=plan, digest=digest,
                          completed=completed, violations=violations,
                          stats=system.network.stats.snapshot(), error=error,
                          flight=flight)


@dataclass
class ExplorationReport:
    """Aggregated outcome of one budgeted sweep."""

    target: str
    seed: int
    cases: List[CaseResult]

    @property
    def failures(self) -> List[CaseResult]:
        return [case for case in self.cases if case.failing]

    def digest(self) -> str:
        """Order-sensitive digest over every case (plan identity + trace)."""
        digest = hashlib.sha256()
        for case in self.cases:
            digest.update(case.plan.key().encode("utf-8"))
            digest.update(case.digest.encode("utf-8"))
        return digest.hexdigest()

    def summary(self) -> Dict[str, int]:
        """Violation counts by invariant name (empty dict = clean sweep)."""
        counts: Dict[str, int] = {}
        for case in self.failures:
            for violation in case.violations:
                counts[violation.invariant] = \
                    counts.get(violation.invariant, 0) + 1
        return counts


class Explorer:
    """A seeded, budgeted sweep over generated plans for one target."""

    def __init__(self, target="nested_abort", seed: int = 0,
                 budget: int = 100,
                 kinds: Sequence[str] = DEFAULT_KINDS,
                 max_directives: int = 3,
                 jitter_probability: float = 0.5,
                 algorithm: str = "ours",
                 baselines: Sequence[str] = (),
                 stop_on_first_failure: bool = False,
                 generator: Optional[FaultPlanGenerator] = None) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.target = get_target(target)
        self.seed = int(seed)
        self.budget = budget
        self.algorithm = algorithm
        self.baselines = tuple(baselines)
        self.stop_on_first_failure = stop_on_first_failure
        self.generator = generator or FaultPlanGenerator(
            self.seed, self.target.threads, kinds=kinds,
            max_directives=max_directives,
            jitter_probability=jitter_probability)

    def run(self, start: int = 0) -> ExplorationReport:
        """Run cases ``start .. start + budget - 1`` of this seed."""
        cases: List[CaseResult] = []
        for index in range(start, start + self.budget):
            plan = self.generator.sample(index)
            case = run_case(self.target, plan, algorithm=self.algorithm,
                            baselines=self.baselines, index=index)
            cases.append(case)
            if case.failing and self.stop_on_first_failure:
                break
        return ExplorationReport(target=self.target.name, seed=self.seed,
                                 cases=cases)

    def predicate(self):
        """A shrink predicate bound to this explorer's target/algorithm.

        Returns a callable mapping a plan to its violations (empty list =
        the plan passes), as :func:`~repro.explore.shrink.shrink_plan`
        expects.
        """
        def still_failing(plan: ExplorationPlan) -> List[OracleViolation]:
            return run_case(self.target, plan, algorithm=self.algorithm,
                            baselines=self.baselines).violations
        return still_failing


# ----------------------------------------------------------------------
# Scenario-engine integration (module-level, hence picklable)
# ----------------------------------------------------------------------
def explore_chunk(target: str = "nested_abort", seed: int = 2026,
                  start: int = 0, stop: int = 25,
                  kinds: Sequence[str] = DEFAULT_KINDS,
                  max_directives: int = 3,
                  jitter_probability: float = 0.5,
                  algorithm: str = "ours",
                  baselines: Sequence[str] = ()) -> Dict[str, Any]:
    """Run plan indices ``[start, stop)`` and return one summary row.

    Pure in its arguments: the engine's process-pool path and sequential
    fallback produce identical rows, so explorer sweeps inherit the
    byte-identical parallel/sequential guarantee of the other scenarios.
    """
    if stop <= start:
        raise ValueError("need stop > start")
    explorer = Explorer(target=target, seed=seed, budget=stop - start,
                        kinds=kinds, max_directives=max_directives,
                        jitter_probability=jitter_probability,
                        algorithm=algorithm, baselines=baselines)
    report = explorer.run(start=start)
    return {
        "target": report.target,
        "seed": seed,
        "start": start,
        "stop": stop,
        "cases": len(report.cases),
        "failures": len(report.failures),
        "violations": [str(violation) for case in report.failures
                       for violation in case.violations],
        "failing_plans": [case.plan.to_dict() for case in report.failures],
        "digest": report.digest(),
    }
