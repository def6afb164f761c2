"""Known bugs as patches: the yardstick for the fault-space explorer.

Each :class:`KnownBug` re-introduces one real protocol bug (or names an
algorithm that still has one) for the duration of a ``monkeypatch``.  An
explorer is measured by how many runs it needs to hit each bug, over
many seeds — the time-to-bug comparison of Klees et al., "Evaluating
Fuzz Testing" (CCS 2018), rather than coverage counts or one lucky seed.

Run ``python tests/explore/bugbench.py`` (add ``PYTHONPATH=<tree>/src``
to measure another checkout) to print, per bug, the median number of
runs to the first failure and the misses over seeds 0–19 at a budget of
200 plans on ``nested_abort`` (~10 s on two cores).  A miss counts as never found, so
a bug missed on most seeds has no median.

``test_bugbench.py`` holds the random explorer to this bench;
``test_rediscovery.py`` and ``test_flight_dumps.py`` take the
:func:`lost_commit_bug` fixture.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import pytest

if __name__ == "__main__":  # a checkout without an install
    sys.path.append(str(Path(__file__).resolve().parents[2] / "src"))

from repro.core import effects as fx  # noqa: E402
from repro.core.resolution import ResolutionCoordinator  # noqa: E402
from repro.explore import Explorer  # noqa: E402
from repro.runtime.partition import Partition  # noqa: E402

SEEDS = range(20)
BUDGET = 200
TARGET = "nested_abort"


def _legacy_receive_commit(self, message):
    """The old Commit handling (the lost-Commit race).

    A Commit for a non-active action was dropped outright, and a Commit
    for the active action was obeyed even while that action was being
    aborted — wiping ``LEi`` and with it the record of the enclosing
    exception the abortion was resolving.
    """
    context = self.active_context()
    if context is None or context.action != message.action:
        self._trace(f"ignore Commit for {message.action}")
        return [fx.LogEvent(f"{self.thread_id} ignored Commit for "
                            f"{message.action}")]
    self.le.clear()
    self.handling[message.action] = message.exception
    self._trace(f"commit {message.exception.name} in {message.action}")
    return [fx.HandleResolved(message.action, message.exception,
                              resolver=message.resolver)]


_receive_report = ResolutionCoordinator._receive_exception_or_suspended


def _dropping_receive_report(self, message):
    """An Exception/Suspended report for a not-yet-entered action is
    dropped, where the algorithm says to retain it until entry."""
    if self.sa.find(message.action) is None and \
            self._message_staleness(message) != "stale":
        return [fx.LogEvent(f"{self.thread_id} dropped early report for "
                            f"{message.action}")]
    return _receive_report(self, message)


def _patch_lost_commit(monkeypatch) -> None:
    monkeypatch.setattr(ResolutionCoordinator, "_receive_commit",
                        _legacy_receive_commit)


def _patch_early_report_drop(monkeypatch) -> None:
    monkeypatch.setattr(ResolutionCoordinator,
                        "_receive_exception_or_suspended",
                        _dropping_receive_report)


def _patch_abort_during_signalling(monkeypatch) -> None:
    # Without "signalling" among the abort-interruptible statuses, an
    # enclosing abort that arrives after a nested handler finished is
    # never acted on and the thread waits for proposals forever.
    monkeypatch.setattr(Partition, "ABORT_INTERRUPTIBLE", tuple(
        status for status in Partition.ABORT_INTERRUPTIBLE
        if status != "signalling"))


@dataclass(frozen=True)
class KnownBug:
    """One bug the explorer should find: a patch, or a buggy algorithm."""

    name: str
    description: str
    patch: Optional[Callable[[pytest.MonkeyPatch], None]] = None
    algorithm: str = "ours"


BUGS = (
    KnownBug("lost_commit", "the old Commit handling (lost-Commit race)",
             _patch_lost_commit),
    KnownBug("early_report_drop",
             "a report for a not-yet-entered action is dropped, not "
             "retained", _patch_early_report_drop),
    KnownBug("cr_stranding",
             "campbell-randell strands threads on delayed messages "
             "(unpatched)", algorithm="campbell-randell"),
    KnownBug("abort_during_signalling",
             "an enclosing abort cannot interrupt the signalling phase",
             _patch_abort_during_signalling),
)


def runs_to_first_failure(bug: KnownBug, seed: int,
                          budget: int = BUDGET) -> Optional[int]:
    """Runs the random explorer needs to hit ``bug``; None on a miss."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        if bug.patch is not None:
            bug.patch(monkeypatch)
        report = Explorer(target=TARGET, seed=seed, budget=budget,
                          algorithm=bug.algorithm,
                          stop_on_first_failure=True).run()
    return report.failures[0].index + 1 if report.failures else None


def summarise(runs: List[Optional[int]]) -> str:
    """``median runs, misses/seeds, worst`` with a miss counted as never."""
    found = [count for count in runs if count is not None]
    median = statistics.median(
        [math.inf if count is None else count for count in runs])
    shown = "miss" if median == math.inf else f"{median:g}"
    worst = max(found) if found else "-"
    return (f"median {shown:>5}  misses {len(runs) - len(found):>2}/"
            f"{len(runs)}  worst {worst}")


@pytest.fixture
def lost_commit_bug(monkeypatch):
    """Locally revert the lost-Commit fix for one test."""
    _patch_lost_commit(monkeypatch)


def main() -> int:
    print(f"random Explorer on {TARGET}, budget {BUDGET}, "
          f"seeds {SEEDS.start}-{SEEDS.stop - 1}")
    for bug in BUGS:
        runs = [runs_to_first_failure(bug, seed) for seed in SEEDS]
        print(f"  {bug.name:24s} {summarise(runs)}  ({bug.description})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
