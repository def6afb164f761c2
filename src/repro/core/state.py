"""Per-thread protocol state: thread states, the list LEi and the stack SAi.

Section 3.3.1: "each thread Ti keeps the following data structures: list
LEi — records exceptions that have been raised or suspended states of
threads that have halted normal computation; stack SAi — stores the
exception context and the exception graph corresponding to each of nested
CA actions", and each thread is in one of the states N (normal), X
(exceptional) or S (suspended).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional, Set,
                    Tuple, Union)

from .exception_graph import CompiledGraphIndex, ExceptionGraph
from .exceptions import ExceptionDescriptor, RaisedRecord


class ThreadState(Enum):
    """The three states a participating thread can be in."""

    NORMAL = "N"
    EXCEPTIONAL = "X"
    SUSPENDED = "S"


_DIGIT_RUNS = re.compile(r"(\d+)")

#: Memo for :func:`thread_order_key`: the key is a pure function of the
#: identifier and the protocols compute it on every election/ordering, so
#: one regex split per distinct identifier is enough.  Cleared when it
#: grows past a bound so pathological workloads cannot leak memory.
_ORDER_KEY_CACHE: Dict[str, Tuple[Tuple[Union[str, int], ...], str]] = {}
_ORDER_KEY_CACHE_LIMIT = 16384


def thread_order_key(thread_id: str) -> Tuple[Tuple[Union[str, int], ...], str]:
    """Natural-order sort key for thread identifiers.

    The paper elects "the thread with the largest identifier among the
    exceptional threads" as the resolver; with numbered identifiers that
    ordering is numeric, so ``T64`` must outrank ``T9`` (lexicographically
    ``"T9" > "T64"``).  Digit runs compare as integers, everything else as
    text, and the resulting keys alternate text/number chunks so comparisons
    between any two identifiers are well defined.  The raw identifier is
    appended as a final tie-break so distinct ids that naturalise equally
    (``"T9"`` vs ``"T09"``) still have a total order — without it, election
    among such ids would depend on set-iteration order and nodes could
    disagree.  Every place the protocols order thread ids — resolver
    election, participant ordering, designated committer — must use this
    one key so all nodes agree.
    """
    key = _ORDER_KEY_CACHE.get(thread_id)
    if key is None:
        if len(_ORDER_KEY_CACHE) >= _ORDER_KEY_CACHE_LIMIT:
            _ORDER_KEY_CACHE.clear()
        chunks = tuple(int(chunk) if chunk.isdigit() else chunk
                       for chunk in _DIGIT_RUNS.split(thread_id))
        key = _ORDER_KEY_CACHE[thread_id] = (chunks, thread_id)
    return key


def max_thread(thread_ids: Iterable[str]) -> str:
    """The largest thread identifier under the shared natural ordering."""
    return max(thread_ids, key=thread_order_key)


def min_thread(thread_ids: Iterable[str]) -> str:
    """The smallest thread identifier under the shared natural ordering."""
    return min(thread_ids, key=thread_order_key)


@dataclass(slots=True)
class ActionContext:
    """One element of the stack SAi: the exception context of one action.

    Holds everything a thread needs to participate in coordination for that
    action: its name, the ordered participant list ``GA``, the exception
    graph, and the nesting parent's name (None for the outermost action).
    """

    action: str
    participants: Tuple[str, ...]
    graph: ExceptionGraph
    parent: Optional[str] = None
    #: Key of the particular action *instance* (empty in contexts built by
    #: instance-agnostic callers).  Cooperating threads compute identical
    #: keys for the same joint attempt, so protocol messages stamped with
    #: it can be told apart from messages of earlier/later instances of
    #: the same action name.
    instance: str = ""
    #: ``participants`` as a set, built once per context: the resolution and
    #: signalling guards compare their census against it on every message.
    participant_set: FrozenSet[str] = field(default=frozenset(), init=False,
                                            repr=False, compare=False)
    #: Single-entry memo for :meth:`others`: a context is overwhelmingly
    #: queried by the one thread that owns it.  compare=False keeps
    #: context equality independent of query history.
    _others_me: Optional[str] = field(default=None, init=False, repr=False,
                                      compare=False)
    _others_value: Tuple[str, ...] = field(default=(), init=False,
                                           repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.participants:
            raise ValueError(f"action {self.action!r} has no participants")
        ordered = tuple(sorted(self.participants, key=thread_order_key))
        self.participants = ordered
        self.participant_set = frozenset(ordered)

    def others(self, me: str) -> Tuple[str, ...]:
        """All participants except ``me``."""
        if me == self._others_me:
            return self._others_value
        value = tuple(p for p in self.participants if p != me)
        self._others_me = me
        self._others_value = value
        return value

    @property
    def compiled_graph(self) -> CompiledGraphIndex:
        """The action's compiled exception-graph index.

        Every participant of an action holds an :class:`ActionContext` over
        the *same* :class:`ExceptionGraph` object (the one registered with
        the action definition), so the lazily built index is computed once
        and shared by all of them; graph mutations invalidate it.
        """
        return self.graph.compiled()

    def resolve(self, raised) -> ExceptionDescriptor:
        """Resolve ``raised`` through the action's (compiled) graph."""
        return self.graph.resolve(raised)

    def __repr__(self) -> str:
        return f"<ActionContext {self.action} G={list(self.participants)}>"


class ContextStack:
    """The stack SAi of nested action contexts for one thread."""

    def __init__(self) -> None:
        self._stack: List[ActionContext] = []

    def push(self, context: ActionContext) -> None:
        """Enter an action: push its context."""
        self._stack.append(context)

    def pop(self) -> ActionContext:
        """Leave the innermost action: pop its context."""
        if not self._stack:
            raise IndexError("context stack is empty")
        return self._stack.pop()

    def top(self) -> Optional[ActionContext]:
        """The context of the currently active (innermost) action, if any."""
        return self._stack[-1] if self._stack else None

    def find(self, action: str) -> Optional[ActionContext]:
        """Find the context for ``action`` anywhere in the stack."""
        for context in self._stack:
            if context.action == action:
                return context
        return None

    def contains(self, action: str) -> bool:
        """True if ``action`` is somewhere on the stack."""
        return self.find(action) is not None

    def actions_between_top_and(self, action: str) -> List[str]:
        """Names of the nested actions strictly inside ``action``, innermost first.

        These are the actions that must be aborted when an exception arrives
        from the containing action ``action``.
        """
        if not self.contains(action):
            raise KeyError(f"action {action!r} not on the stack")
        inner: List[str] = []
        for context in reversed(self._stack):
            if context.action == action:
                return inner
            inner.append(context.action)
        return inner  # pragma: no cover - unreachable, contains() checked

    def pop_until(self, action: str) -> List[ActionContext]:
        """Pop contexts until ``action`` is on top; returns the popped ones."""
        popped: List[ActionContext] = []
        while self._stack and self._stack[-1].action != action:
            popped.append(self._stack.pop())
        if not self._stack:
            raise KeyError(f"action {action!r} was not on the stack")
        return popped

    def depth(self) -> int:
        """Number of nested contexts currently entered."""
        return len(self._stack)

    def as_names(self) -> List[str]:
        """Action names from outermost to innermost."""
        return [context.action for context in self._stack]

    def __len__(self) -> int:
        return len(self._stack)

    def __repr__(self) -> str:
        return f"<ContextStack {self.as_names()}>"


class LocalExceptionList:
    """The list LEi of exceptions raised / suspensions observed.

    Only entries for the currently relevant action are kept (the algorithm
    removes other entries when an abortion switches the active context).

    Every protocol message updates LEi and re-evaluates the resolution
    guard, so the "list" is kept as an index: records are keyed by
    ``(action, thread)`` — per action, in insertion order — and each action
    carries a count of its records per instance stamp.  Adding a record and
    asking how many threads have reported (:meth:`reported_count`) are both
    O(1) in the number of participants.
    """

    def __init__(self) -> None:
        #: action -> (thread -> that thread's latest record,
        #:            instance stamp ("" = unstamped) -> number of records).
        self._actions: Dict[str, Tuple[Dict[str, RaisedRecord],
                                       Dict[str, int]]] = {}

    def add(self, record: RaisedRecord) -> None:
        """Append a record, replacing any previous record for the same thread.

        A thread that first suspended and later raised an abortion exception
        (or vice versa) must be represented by its most recent status,
        otherwise the resolver could double-count it.
        """
        entry = self._actions.get(record.action)
        if entry is None:
            self._actions[record.action] = ({record.thread: record},
                                            {record.instance: 1})
            return
        records, stamps = entry
        # Pop before inserting: the replacement goes to the end of the order.
        previous = records.pop(record.thread, None)
        if previous is not None:
            stamps[previous.instance] -= 1
        records[record.thread] = record
        stamps[record.instance] = stamps.get(record.instance, 0) + 1

    def remove_other_actions(self, action: str) -> None:
        """Drop every record that does not belong to ``action``."""
        entry = self._actions.get(action)
        self._actions = {} if entry is None else {action: entry}

    def keep_only(self, record: RaisedRecord) -> None:
        """Algorithm step: "remove all elements except <A*, Tj, Ej> in LEi"."""
        self._actions = {}
        self.add(record)

    def clear(self) -> None:
        """Empty the list (after a Commit or when handling completes)."""
        self._actions = {}

    def reported_count(self, action: str,
                       instance: Optional[str] = None) -> int:
        """``len(threads_reported(action, instance))``, from the counters."""
        entry = self._actions.get(action)
        if entry is None:
            return 0
        records, stamps = entry
        if not instance:
            return len(records)
        return stamps.get("", 0) + stamps.get(instance, 0)

    def all_reported(self, action: str, instance: Optional[str],
                     participants: FrozenSet[str]) -> bool:
        """``threads_reported(action, instance) == participants``.

        The census test of every algorithm's resolution guard, evaluated
        after each protocol message: the counters reject an incomplete
        census in O(1), so the set comparison runs about once per round.
        """
        return (self.reported_count(action, instance) == len(participants)
                and self.threads_reported(action, instance) == participants)

    def records_for(self, action: str,
                    instance: Optional[str] = None) -> List[RaisedRecord]:
        """All records belonging to ``action``, in insertion order.

        When ``instance`` is given (and non-empty), records stamped for a
        *different* instance of the same action name are excluded;
        unstamped records match any instance, which keeps the filter
        backward compatible with coordinators that never stamp.
        """
        entry = self._actions.get(action)
        if entry is None:
            return []
        records = entry[0]
        if self.reported_count(action, instance) == len(records):
            return list(records.values())
        return [r for r in records.values()
                if not r.instance or r.instance == instance]

    def threads_reported(self, action: str,
                         instance: Optional[str] = None) -> Set[str]:
        """Threads of ``action`` for which a record (exception or S) exists."""
        return {r.thread for r in self.records_for(action, instance)}

    def exceptions_for(self, action: str,
                       instance: Optional[str] = None
                       ) -> List[ExceptionDescriptor]:
        """The exceptions (not suspensions) recorded for ``action``."""
        return [r.exception for r in self.records_for(action, instance)
                if r.exception is not None]

    def exceptional_threads(self, action: str,
                            instance: Optional[str] = None) -> Set[str]:
        """Threads that raised an exception (state X) in ``action``."""
        return {r.thread for r in self.records_for(action, instance)
                if r.exception is not None}

    def __len__(self) -> int:
        return sum(len(records) for records, _ in self._actions.values())

    def __iter__(self) -> Iterator[RaisedRecord]:
        """Every record, grouped by action, in insertion order within each."""
        return chain.from_iterable(
            records.values() for records, _ in self._actions.values())

    def __repr__(self) -> str:
        return f"<LE {list(self)}>"
