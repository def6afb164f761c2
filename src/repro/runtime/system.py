"""The distributed CA-action system: kernel, network, partitions, registry.

:class:`DistributedCASystem` is the main entry point of the library.  A
typical use (see ``examples/quickstart.py``) is:

1. create the system with a latency model and a :class:`RuntimeConfig`;
2. register atomic objects, action definitions and role→thread bindings;
3. spawn one program per thread;
4. ``run()`` and inspect the returned reports / collected metrics.

The system owns the runtime's one **life-cycle event seam**: every
protocol point a participant passes is reported by exactly one
:meth:`DistributedCASystem.emit` call naming an action/signal kind of
:mod:`repro.runtime.events`.  ``system.metrics`` is subscribed from
construction; the oracle collector
(:class:`~repro.runtime.monitor.InvariantMonitor`) and an attached
``repro.obs`` observation join through :meth:`~DistributedCASystem.subscribe`.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from ..core.action import ActionRegistry, CAActionDefinition
from ..core.state import thread_order_key
from ..net.faults import FaultPlan
from ..net.latency import ConstantLatency, LatencyModel
from ..net.network import Network
from ..objects.transaction import Transaction, TransactionManager
from ..simkernel.kernel import Kernel
from .config import RuntimeConfig
from .metrics import RunMetrics
from .partition import Partition

#: The ambient observation scope: every system built while it is set is
#: handed to its ``adopt(system)``.  :func:`repro.obs.capture` sets and
#: clears it; ``None`` (observability off) costs the constructor one
#: module-global read.
AMBIENT_CAPTURE: Optional[Any] = None


class SystemConfigurationError(RuntimeError):
    """Raised for inconsistent system setup (unknown threads, bindings...)."""


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the ``with`` block.

    Every simulated run builds short-lived processes, events and frames
    that form reference cycles, and letting generational GC trigger
    mid-run costs measurably more than deferring the cleanup.  Collection
    resumes (and catches up on its own schedule) when the block exits,
    normally or by an exception.  Re-entrant: a block entered with the
    collector already paused (an outer pause, or a caller's own
    ``gc.disable()``) leaves it paused.  GC state never affects simulated
    behaviour, so results are identical either way.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def parallel_map(fn: Callable[..., Any], points: Sequence[Mapping[str, Any]],
                 workers: int) -> Tuple[List[Any], str]:
    """``[fn(**point) for point in points]`` and the executor that ran it.

    With ``workers > 1`` and more than one point, the points fan out over a
    :class:`~concurrent.futures.ProcessPoolExecutor` of
    ``min(workers, len(points))`` workers (``"process-pool"``); otherwise
    they run in this process (``"sequential"``).  When ``fn`` does not
    pickle, the pool cannot be created (``OSError``) or it breaks mid-run
    (``BrokenProcessPool``), the points run in this process after one
    logged warning.  Results come back in ``points`` order, and an
    exception ``fn`` raises propagates.  The collector is left as the
    caller set it.
    """
    if workers > 1 and len(points) > 1:
        size = min(workers, len(points))
        results, failure = _pool_map(fn, points, size)
        if failure is None:
            return results, "process-pool"
        import logging

        logging.getLogger(__name__).warning(
            "%s: no %d-worker process pool (%s); falling back to running "
            "its %d points in-process", getattr(fn, "__name__", fn), size,
            failure, len(points))
    return [fn(**point) for point in points], "sequential"


def _pool_map(fn: Callable[..., Any], points: Sequence[Mapping[str, Any]],
              size: int) -> Tuple[List[Any], Optional[BaseException]]:
    """The pool path of :func:`parallel_map`; an error in place of
    results means "fall back"."""
    import pickle
    from concurrent.futures.process import (BrokenProcessPool,
                                            ProcessPoolExecutor)

    try:
        pickle.dumps(fn)
    except (pickle.PicklingError, AttributeError, TypeError) as error:
        return [], error
    try:
        pool = ProcessPoolExecutor(max_workers=size)
    except OSError as error:
        # Restricted environments (no fork, no semaphores).
        return [], error
    try:
        with pool:
            futures = [pool.submit(fn, **point) for point in points]
            return [future.result() for future in futures], None
    except BrokenProcessPool as error:
        # A worker died; fn's own exceptions propagate from result().
        return [], error


class DistributedCASystem:
    """A simulated distributed object system supporting CA actions.

    Parameters
    ----------
    config:
        Runtime configuration (algorithm selection, Treso/Tabo charges...).
    latency:
        Network latency model (``Tmmax`` of the experiments).
    faults:
        Optional fault-injection plan for the network.
    kernel:
        Optional pre-existing simulation kernel (a fresh one by default).
    network:
        Optional pre-built network (a transport backend's subclass); when
        given, ``latency``/``faults`` are ignored and the
        network's kernel must be this system's kernel.
    """

    def __init__(self, config: Optional[RuntimeConfig] = None,
                 latency: Optional[LatencyModel] = None,
                 faults: Optional[FaultPlan] = None,
                 kernel: Optional[Kernel] = None,
                 network: Optional[Network] = None) -> None:
        self.config = config or RuntimeConfig()
        self.kernel = kernel or Kernel()
        if network is not None:
            if network.kernel is not self.kernel:
                raise SystemConfigurationError(
                    "pre-built network must share the system kernel")
            self.network = network
        else:
            self.network = Network(self.kernel,
                                   latency=latency or ConstantLatency(0.0),
                                   faults=faults)
        self.registry = ActionRegistry()
        self.transactions = TransactionManager(self.kernel)
        self.metrics = RunMetrics()
        self.partitions: Dict[str, Partition] = {}
        self._bindings: Dict[str, Dict[str, str]] = {}
        #: Instance-scoped bindings: scope (top-level instance key) ->
        #: action name -> role -> thread.  Installed by the workload driver
        #: so that many instances of one action definition can run
        #: concurrently on different subsets of a shared partition pool.
        self._instance_bindings: Dict[str, Dict[str, Dict[str, str]]] = {}
        self._instance_transactions: Dict[str, Transaction] = {}
        #: Scope index over :attr:`_instance_transactions`:
        #: top-level scope -> keys created for it, so
        #: :meth:`release_instance` deletes exactly an instance's own
        #: transactions instead of scanning every in-flight one.
        self._transactions_by_scope: Dict[str, List[str]] = {}
        #: Scope index over the partitions' dispatchers: top-level scope ->
        #: dispatchers holding any state for it (each registers itself on
        #: first touch, see :meth:`Dispatcher._touch_scope`), so
        #: :meth:`release_instance` sweeps exactly the participants.
        self._scope_dispatchers: Dict[str, List] = {}
        #: Resolution cache for the dispatcher/life-cycle hot path:
        #: ``scope -> action -> (binding, ordered participants)``.  Scope
        #: is the instance key's outermost segment ("" for instance-less
        #: lookups).  Entries are invalidated by :meth:`bind`,
        #: :meth:`bind_instance` and :meth:`release_instance`, so the
        #: cache never outlives the binding it was derived from.
        self._resolved_bindings: Dict[str, Dict[str, tuple]] = {}
        self._programs: List = []
        #: Subscribers of the life-cycle seam (see :meth:`emit`), each
        #: called as ``(kind, now, thread, action, instance, data)``.
        self.subscribers: List[Callable[..., None]] = [self.metrics.on_event]
        #: The attached :class:`~repro.obs.observation.SystemObservation`,
        #: or ``None`` (the default — observability off).  Set either by
        #: :data:`AMBIENT_CAPTURE` adopting the system below, or directly
        #: through :func:`repro.obs.observe_system`.
        self.observation = None
        #: Optional hook ``(instance_key, definition) -> Transaction``
        #: consulted by :meth:`transaction_for` before the local
        #: transaction manager.  The real backend installs a factory that
        #: returns remote-object proxies; ``None`` (the default) keeps the
        #: historical all-local path byte-identical.
        self.transaction_factory = None
        ambient = AMBIENT_CAPTURE
        if ambient is not None:
            ambient.adopt(self)

    # ------------------------------------------------------------------
    # The life-cycle event seam
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[..., None]) -> None:
        """Register a life-cycle subscriber (see :attr:`subscribers`)."""
        self.subscribers.append(callback)

    def emit(self, kind: str, thread: str, action: str,
             instance: Optional[str], **data) -> None:
        """Report one protocol point of ``thread`` in ``action``/``instance``.

        ``kind`` is an action/signal constant of :mod:`repro.runtime.events`;
        ``data`` carries its fields as live objects (exception descriptors,
        status enums) for each subscriber to render as it needs.
        """
        now = self.kernel._now
        for subscriber in self.subscribers:
            subscriber(kind, now, thread, action, instance, data)

    # ------------------------------------------------------------------
    # Static structure
    # ------------------------------------------------------------------
    def add_thread(self, name: str) -> Partition:
        """Create a participating thread (and its node/partition)."""
        if name in self.partitions:
            raise SystemConfigurationError(f"thread {name!r} already exists")
        partition = Partition(self, name)
        self.partitions[name] = partition
        return partition

    def add_threads(self, names: Iterable[str]) -> List[Partition]:
        """Create several threads at once."""
        return [self.add_thread(name) for name in names]

    def define_action(self, definition: CAActionDefinition) -> CAActionDefinition:
        """Register a CA action definition."""
        return self.registry.register(definition)

    def bind(self, action: str, roles_to_threads: Dict[str, str]) -> None:
        """Declare which thread performs which role of ``action``.

        Every thread mentioned must already exist, and every role of the
        action must be covered exactly once.
        """
        definition = self.registry.get(action)
        missing_roles = set(definition.role_names) - set(roles_to_threads)
        if missing_roles:
            raise SystemConfigurationError(
                f"binding for {action!r} misses roles {sorted(missing_roles)}")
        unknown_roles = set(roles_to_threads) - set(definition.role_names)
        if unknown_roles:
            raise SystemConfigurationError(
                f"binding for {action!r} names unknown roles {sorted(unknown_roles)}")
        for thread in roles_to_threads.values():
            if thread not in self.partitions:
                raise SystemConfigurationError(
                    f"binding for {action!r} names unknown thread {thread!r}")
        self._bindings[action] = dict(roles_to_threads)
        # Scoped lookups fall back to the action-level binding, so every
        # cached resolution of this action may now be stale.
        for scoped in self._resolved_bindings.values():
            scoped.pop(action, None)

    def bind_instance(self, instance: str, action: str,
                      roles_to_threads: Dict[str, str]) -> None:
        """Bind the roles of ``action`` for one particular *instance*.

        ``instance`` is the instance key of the outermost action of the
        instance's nesting scope (nested instance keys extend it with
        ``/...`` segments and resolve through the same scope).  The binding
        is validated exactly like :meth:`bind` but only applies to that
        scope, so several instances of the same action definition can run
        concurrently on different threads of a shared pool.  Release the
        scope with :meth:`release_instance` once the instance concluded.
        """
        if not instance:
            raise SystemConfigurationError("instance key must be non-empty")
        definition = self.registry.get(action)
        missing_roles = set(definition.role_names) - set(roles_to_threads)
        if missing_roles:
            raise SystemConfigurationError(
                f"instance binding for {action!r} misses roles "
                f"{sorted(missing_roles)}")
        unknown_roles = set(roles_to_threads) - set(definition.role_names)
        if unknown_roles:
            raise SystemConfigurationError(
                f"instance binding for {action!r} names unknown roles "
                f"{sorted(unknown_roles)}")
        for thread in roles_to_threads.values():
            if thread not in self.partitions:
                raise SystemConfigurationError(
                    f"instance binding for {action!r} names unknown thread "
                    f"{thread!r}")
        scope = instance.split("/", 1)[0]
        self._instance_bindings.setdefault(scope, {})[action] = \
            dict(roles_to_threads)
        scoped = self._resolved_bindings.get(scope)
        if scoped is not None:
            scoped.pop(action, None)

    def binding(self, action: str, instance: str = "") -> Dict[str, str]:
        """The role→thread binding of ``action``.

        With a non-empty ``instance`` key, an instance-scoped binding (see
        :meth:`bind_instance`) takes precedence over the action-level one;
        the scope is the key's outermost segment, so nested instances
        resolve through their top-level instance's bindings.
        """
        if instance:
            scoped = self._instance_bindings.get(instance.split("/", 1)[0])
            if scoped is not None and action in scoped:
                return scoped[action]
        try:
            return self._bindings[action]
        except KeyError:
            raise SystemConfigurationError(
                f"action {action!r} has no role binding") from None

    def resolved_binding(self, action: str, instance: str = "",
                         ) -> "tuple[Dict[str, str], tuple]":
        """The binding of ``action`` plus its ordered participant tuple.

        Resolution is exactly :meth:`binding` followed by the protocols'
        canonical participant ordering (distinct bound threads, natural
        thread order), memoized per ``(action, scope)`` — the life-cycle
        performs it once per executed action instance, which makes it one
        of the runtime's hottest lookups under traffic.
        """
        cut = instance.find("/")
        scope = instance if cut < 0 else instance[:cut]
        scoped = self._resolved_bindings.get(scope)
        if scoped is None:
            scoped = self._resolved_bindings[scope] = {}
        cached = scoped.get(action)
        if cached is None:
            binding = self.binding(action, instance)
            participants = tuple(sorted(set(binding.values()),
                                        key=thread_order_key))
            cached = scoped[action] = (binding, participants)
        return cached

    def release_instance(self, instance: str) -> None:
        """Drop per-instance state of a concluded instance scope.

        Releases the scope's role bindings, its (finished) transactions
        and every partition's dispatcher bookkeeping (entry/exit barrier
        sets, cooperation mailboxes, parked signalling proposals) — a
        long-lived workload would otherwise accumulate all of those per
        instance ever served.  The coordinators' ``finished_instances``
        sets deliberately survive: they are what lets a *late* message of
        the released instance be recognised as stale and dropped.
        """
        scope = instance.split("/", 1)[0]
        self._instance_bindings.pop(scope, None)
        self._resolved_bindings.pop(scope, None)
        for key in self._transactions_by_scope.pop(scope, ()):
            self._instance_transactions.pop(key, None)
        for dispatcher in self._scope_dispatchers.pop(scope, ()):
            dispatcher.release_instance(scope)

    def note_scope_dispatcher(self, scope: str, dispatcher) -> None:
        """Register ``dispatcher`` as holding state for ``scope``.

        Called by each dispatcher on its first touch of a scope; the index
        lets :meth:`release_instance` visit only the dispatchers that
        actually participated in the instance.
        """
        self._scope_dispatchers.setdefault(scope, []).append(dispatcher)

    def create_object(self, name: str, initial_state=None, invariant=None):
        """Create and register an external atomic object."""
        return self.transactions.create_object(name, initial_state, invariant)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def spawn(self, thread: str, program: Callable) -> "object":
        """Start ``program`` (generator function of a ProgramContext) on ``thread``."""
        if thread not in self.partitions:
            raise SystemConfigurationError(f"unknown thread {thread!r}")
        process = self.partitions[thread].run_program(program)
        self._programs.append(process)
        return process

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation until quiescence (or until a given time)."""
        self.kernel.run(until=until)

    def run_to_completion(self) -> List[object]:
        """Run until every spawned program has finished; return their results."""
        if not self._programs:
            raise SystemConfigurationError("no programs have been spawned")
        gate = self.kernel.all_of(self._programs)
        self.kernel.run(until=gate)
        return [process.value for process in self._programs]

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.kernel.now

    # ------------------------------------------------------------------
    # Per-instance transactions
    # ------------------------------------------------------------------
    def transaction_for(self, instance_key: str,
                        definition: CAActionDefinition) -> Transaction:
        """The shared transaction of one action instance (created on first use)."""
        transaction = self._instance_transactions.get(instance_key)
        if transaction is None:
            factory = self.transaction_factory
            transaction = self._instance_transactions[instance_key] = \
                (factory(instance_key, definition) if factory is not None
                 else self.transactions.begin(definition.name))
            self._transactions_by_scope.setdefault(
                instance_key.split("/", 1)[0], []).append(instance_key)
        return transaction

    def __repr__(self) -> str:
        return (f"<DistributedCASystem threads={sorted(self.partitions)} "
                f"actions={len(self.registry)} algorithm={self.config.algorithm}>")
