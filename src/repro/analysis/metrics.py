"""Run-level metrics collected by the CA-action runtime.

One :class:`RunMetrics` instance is attached to a
:class:`~repro.runtime.system.DistributedCASystem` and subscribed to its
life-cycle seam (``system.emit`` → :meth:`RunMetrics.on_event`); it counts
what the paper's experiments measure (raises, suspensions, resolutions,
handler invocations, abortions, signals, action outcomes) and the
benchmarks read the aggregates from it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.exceptions import NO_EXCEPTION
from ..obs import events as kinds


@dataclass(slots=True)
class ActionOutcome:
    """The final outcome of one executed CA action instance."""

    action: str
    outcome: str                 # "success", "signalled", "undone", "failed"
    signalled: Optional[str] = None
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    def to_dict(self) -> Dict[str, object]:
        """A plain-dict (JSON-serializable) copy of this outcome."""
        return {
            "action": self.action,
            "outcome": self.outcome,
            "signalled": self.signalled,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ActionOutcome":
        """Rebuild an outcome from :meth:`to_dict` output."""
        return cls(
            action=str(data["action"]),
            outcome=str(data["outcome"]),
            signalled=data.get("signalled"),  # type: ignore[arg-type]
            started_at=float(data.get("started_at", 0.0)),  # type: ignore[arg-type]
            finished_at=float(data.get("finished_at", 0.0)),  # type: ignore[arg-type]
        )


#: Life-cycle kind -> (scalar counter, per-exception-name map) it
#: increments; ``None`` where the kind has no such counter.
_COUNTED: Dict[str, Tuple[Optional[str], Optional[str]]] = {
    kinds.ACTION_RAISED: ("exceptions_raised", "exceptions_by_name"),
    kinds.ACTION_SUSPENDED: ("suspensions", None),
    kinds.ACTION_RESOLVED: ("resolutions", "resolved_by_name"),
    kinds.ACTION_HANDLING: ("handlers_invoked", None),
    kinds.ACTION_ABORTING: ("abortions", None),
    kinds.ACTION_SIGNALLED: (None, "signalled"),
}


class RunMetrics:
    """Aggregated counters for one simulated run.

    ``keep_details`` (default ``True``) controls whether the unbounded
    per-participation ``action_outcomes`` list is retained.  A
    million-instance shard of a
    :class:`~repro.workload.sharding.ShardedPool` sets it to ``False``:
    every counter (including the per-name maps) still counts exactly and
    still merges, only the outcome list stays empty, so memory stays
    flat no matter how many instances a shard serves.
    """

    def __init__(self) -> None:
        self.keep_details: bool = True
        self.exceptions_raised: int = 0
        self.exceptions_by_name: Dict[str, int] = defaultdict(int)
        self.resolutions: int = 0
        self.resolution_calls: int = 0
        self.resolved_by_name: Dict[str, int] = defaultdict(int)
        self.handlers_invoked: int = 0
        self.abortions: int = 0
        self.suspensions: int = 0
        self.signalled: Dict[str, int] = defaultdict(int)
        self.action_outcomes: List[ActionOutcome] = []
        #: Entry times of the open participations (``keep_details`` only).
        self._entered_at: Dict[Tuple[str, str, Optional[str]], float] = {}

    # ------------------------------------------------------------------
    def on_event(self, kind: str, now: float, thread: str, action: str,
                 instance: Optional[str], data: Dict[str, Any]) -> None:
        """Life-cycle subscriber: count one ``system.emit`` notification."""
        counted = _COUNTED.get(kind)
        if counted is not None:
            if kind == kinds.ACTION_RESOLVED and data["resolver"] != thread:
                # Emitted per delivery; one resolution is the resolver's own.
                return
            counter, by_name = counted
            if counter is not None:
                setattr(self, counter, getattr(self, counter) + 1)
            if by_name is not None:
                getattr(self, by_name)[data["exception"].name] += 1
        elif not self.keep_details:
            return
        elif kind == kinds.ACTION_ENTERED:
            self._entered_at[(thread, action, instance)] = now
        elif kind == kinds.ACTION_CONCLUDED:
            signalled = data["signalled"]
            self.action_outcomes.append(ActionOutcome(
                action, data["status"].value,
                signalled.name if signalled != NO_EXCEPTION else None,
                self._entered_at.pop((thread, action, instance), now), now))

    # ------------------------------------------------------------------
    def outcomes_for(self, action: str) -> List[ActionOutcome]:
        """All recorded outcomes of the named action."""
        return [o for o in self.action_outcomes if o.action == action]

    def summary(self) -> Dict[str, object]:
        """Plain-dict summary used by benchmark reports."""
        return {
            "exceptions_raised": self.exceptions_raised,
            "resolutions": self.resolutions,
            "handlers_invoked": self.handlers_invoked,
            "abortions": self.abortions,
            "suspensions": self.suspensions,
            "signalled": dict(self.signalled),
            "outcomes": {
                outcome: sum(1 for o in self.action_outcomes
                             if o.outcome == outcome)
                for outcome in {o.outcome for o in self.action_outcomes}
            },
        }

    def counters(self) -> Dict[str, object]:
        """The scalar and per-name counters only (no per-event lists).

        The JSON-friendly aggregate a merged sharded-capacity row embeds:
        exact under ``keep_details=False`` and identical to the matching
        subset of :meth:`snapshot`.
        """
        return {
            "exceptions_raised": self.exceptions_raised,
            "exceptions_by_name": dict(self.exceptions_by_name),
            "resolutions": self.resolutions,
            "resolution_calls": self.resolution_calls,
            "resolved_by_name": dict(self.resolved_by_name),
            "handlers_invoked": self.handlers_invoked,
            "abortions": self.abortions,
            "suspensions": self.suspensions,
            "signalled": dict(self.signalled),
        }

    # ------------------------------------------------------------------
    # Serialization and merging (mirrors MessageStatistics.snapshot())
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A self-contained, JSON-serializable copy of every counter.

        Shaped like :meth:`repro.net.network.MessageStatistics.snapshot`:
        the value round-trips through :meth:`restore` and adds onto another
        instance through :meth:`merge`, which is how per-shard metrics from
        parallel engine sweeps are aggregated into one run summary.
        """
        return {**self.counters(),
                "action_outcomes": [o.to_dict() for o in self.action_outcomes]}

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Reset the metrics to the values captured in ``snapshot``."""
        self.__init__()
        self.merge(snapshot)

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Add the counters captured in ``snapshot`` onto this instance.

        The outcome list is concatenated (snapshot order after existing
        entries), scalar counters and per-name maps are summed.
        """
        for counter in ("exceptions_raised", "resolutions", "resolution_calls",
                        "handlers_invoked", "abortions", "suspensions"):
            setattr(self, counter,
                    getattr(self, counter) + snapshot.get(counter, 0))
        for mapping in ("exceptions_by_name", "resolved_by_name", "signalled"):
            ours = getattr(self, mapping)
            for name, count in snapshot.get(mapping, {}).items():  # type: ignore[union-attr]
                ours[name] += count
        for outcome in snapshot.get("action_outcomes", ()):  # type: ignore[union-attr]
            self.action_outcomes.append(
                outcome if isinstance(outcome, ActionOutcome)
                else ActionOutcome.from_dict(outcome))

    def __repr__(self) -> str:
        return (f"<RunMetrics raised={self.exceptions_raised} "
                f"resolved={self.resolutions} aborted={self.abortions}>")
