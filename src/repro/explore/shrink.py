"""Delta-debugging reduction of failing plans to minimal reproducers.

Given a failing :class:`~repro.explore.plan.ExplorationPlan` and a
predicate (re-running the plan and returning its violations), the
shrinker greedily:

1. removes directives one at a time, to a fixed point — any directive
   whose removal keeps the failure is noise;
2. drops the schedule-perturbation seed if the faults alone suffice, and
   otherwise normalises it to the smallest equivalent value so two
   shrink sessions of the same bug converge on the same reproducer;
3. simplifies directive fields — a per-nth delay becomes a per-type or
   whole-link delay when the failure does not depend on the ordinal, and
   a timed crash becomes an immediate one — so the reproducer names the
   *mechanism* (which message class must be late) rather than a
   coincidental message index;
4. halves the magnitude of delay directives while the failure persists,
   so the reproducer documents roughly *how much* delay is needed;
5. re-runs the removal pass, since simplification can make a surviving
   directive redundant.

Because runs are deterministic, every candidate evaluation is exact: a
plan either reproduces the failure or it does not, and the result is a
minimal reproducer rather than a smaller probability cloud.
:func:`to_pytest_source` renders the reduced plan as a self-contained
pytest module, ready to paste into ``tests/`` as a regression, and
:func:`shrink_to_reproducers` does both for every failing plan of a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Sequence

from ..core.oracles import OracleViolation
from ..net.faults import FaultDirective
from .generator import DEFAULT_MESSAGE_TYPES
from .plan import ExplorationPlan

#: A shrink predicate: run the plan, return its violations (empty = passes).
Predicate = Callable[[ExplorationPlan], List[OracleViolation]]

#: Canonical schedule-perturbation seeds, tried smallest-first when the
#: failure needs *a* perturbation but not the sampled 32-bit one.
CANONICAL_TIE_SEEDS = (0, 1, 2)


def _simpler_variants(directive: FaultDirective,
                      message_types: Sequence[str]
                      ) -> Iterator[FaultDirective]:
    """Strictly simpler rewrites of one directive, best candidate first.

    "Simpler" means fewer incidental details: a per-nth delay pinned to a
    message ordinal generalises to a per-type delay (naming the protocol
    message that must be late) or a whole-link delay; a timed crash
    generalises to an immediate one.  Each candidate is only kept if the
    failure survives the rewrite.
    """
    if directive.kind == "delay_nth":
        for type_name in message_types:
            yield FaultDirective("delay_type", source=directive.source,
                                 destination=directive.destination,
                                 type_name=type_name, extra=directive.extra)
        yield FaultDirective("delay_link", source=directive.source,
                             destination=directive.destination,
                             extra=directive.extra)
    elif directive.kind == "crash" and directive.at_time is not None:
        yield FaultDirective("crash", node=directive.node)


@dataclass
class ShrinkResult:
    """Outcome of a shrink session."""

    original: ExplorationPlan
    reduced: ExplorationPlan
    violations: List[OracleViolation]
    evaluations: int

    @property
    def removed_directives(self) -> int:
        return len(self.original) - len(self.reduced)

    def describe(self) -> str:
        return (f"shrunk {len(self.original)} directive(s) to "
                f"{len(self.reduced)} in {self.evaluations} evaluation(s): "
                f"{self.reduced.describe()}")


def shrink_plan(plan: ExplorationPlan, still_failing: Predicate,
                max_evaluations: int = 200,
                message_types: Sequence[str] = DEFAULT_MESSAGE_TYPES
                ) -> ShrinkResult:
    """Reduce ``plan`` while ``still_failing`` keeps reporting violations.

    ``message_types`` are the payload type names the per-nth → per-type
    simplification may target (default: the protocol messages).

    Raises ``ValueError`` if the initial plan does not fail — shrinking a
    passing plan would silently "reduce" it to the empty plan.
    """
    violations = still_failing(plan)
    evaluations = 1
    if not violations:
        raise ValueError("cannot shrink: the plan does not fail")
    current = plan

    def attempt(candidate: ExplorationPlan) -> bool:
        nonlocal current, violations, evaluations
        if evaluations >= max_evaluations:
            return False
        result = still_failing(candidate)
        evaluations += 1
        if result:
            current, violations = candidate, result
            return True
        return False

    def remove_to_fixed_point() -> None:
        progress = True
        while progress and evaluations < max_evaluations:
            progress = False
            for index in range(len(current)):
                if attempt(current.without_directive(index)):
                    progress = True
                    break

    # 1. Remove directives to a fixed point.
    remove_to_fixed_point()

    # 2. Drop the schedule perturbation if the faults alone reproduce;
    #    failing that, normalise it to the smallest equivalent seed so
    #    repeated shrink sessions converge on one canonical reproducer.
    if current.tie_seed is not None:
        attempt(current.without_tie_seed())
    if current.tie_seed is not None:
        for canonical in CANONICAL_TIE_SEEDS:
            if current.tie_seed == canonical:
                break
            if attempt(replace(current, tie_seed=canonical)):
                break

    # 3. Simplify directive fields (per-nth → per-type → per-link, timed
    #    crash → immediate crash) while the failure persists.
    for index in range(len(current)):
        for candidate in _simpler_variants(current.directives[index],
                                           message_types):
            if attempt(current.with_directive(index, candidate)):
                break

    # 4. Halve delay magnitudes while the failure persists.
    for index in range(len(current)):
        for _ in range(4):
            directive = current.directives[index]
            if directive.extra <= 0.0:
                break
            smaller = replace(directive, extra=round(directive.extra / 2, 3))
            if not attempt(current.with_directive(index, smaller)):
                break

    # 5. Simplification can widen a directive's effect (a per-type delay
    #    covers what a sibling per-nth delay did), so retry removal.
    remove_to_fixed_point()

    return ShrinkResult(original=plan, reduced=current,
                        violations=violations, evaluations=evaluations)


def to_pytest_source(target_name: str, plan: ExplorationPlan,
                     violations: Sequence[OracleViolation] = (),
                     test_name: str = "test_explored_fault_plan",
                     algorithm: str = "ours",
                     baselines: Sequence[str] = ()) -> str:
    """Render a ready-to-paste pytest regression for a (reduced) plan.

    The generated test re-runs the exact case the failure was found
    under — same target, plan, algorithm and differential baselines — and
    asserts the oracle catalogue holds: it *fails* until the bug the plan
    exposes is fixed, then pins the fix.  (Without the original
    algorithm/baselines a differential-agreement failure would emit a
    test that passes immediately.)
    """
    violation_lines = "\n".join(f"  {violation}" for violation in violations) \
        or "  (violations not recorded)"
    arguments = f"{target_name!r}, PLAN"
    if algorithm != "ours":
        arguments += f", algorithm={algorithm!r}"
    if baselines:
        arguments += f", baselines={tuple(baselines)!r}"
    return f'''"""Auto-generated by repro.explore.shrink — minimal reproducer.

Target: {target_name}
Plan: {plan.describe()}
Observed violations:
{violation_lines}
"""

from repro.explore import ExplorationPlan, run_case

PLAN = ExplorationPlan.from_dict({plan.to_dict()!r})


def {test_name}():
    result = run_case({arguments})
    details = "\\n".join(str(v) for v in result.violations)
    assert not result.violations, f"invariant violations:\\n{{details}}"
'''


def shrink_to_reproducers(target_name: str,
                          plans: Sequence[ExplorationPlan]
                          ) -> List[Dict[str, Any]]:
    """Shrink each failing plan into a reproducer record.

    A record holds the plan, the reduced plan, its violations, the pytest
    source and the reduced run's flight-recorder dump.  Distinct plans
    often shrink to the same minimal plan; only the first of those is
    kept, one reproducer per root cause.
    """
    from .explorer import Explorer, run_case

    still_failing = Explorer(target_name).predicate()
    records: List[Dict[str, Any]] = []
    reduced_seen = set()
    for plan in plans:
        result = shrink_plan(plan, still_failing)
        key = result.reduced.key()
        if key in reduced_seen:
            continue
        reduced_seen.add(key)
        # One more run of the minimal plan captures its flight-recorder
        # timeline, which ships next to the ready-to-paste test.
        final = run_case(target_name, result.reduced)
        records.append({
            "plan": plan.to_dict(),
            "reduced": result.reduced.to_dict(),
            "violations": [str(v) for v in result.violations],
            "source": to_pytest_source(target_name, result.reduced,
                                       result.violations),
            "flight": final.flight,
        })
    return records
