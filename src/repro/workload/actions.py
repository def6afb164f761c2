"""Stock CA-action definitions for traffic generation, and the action mix.

A load test needs action definitions whose behaviour is *parameterised per
instance* — service times and fault injection must differ from job to job,
yet be exactly reproducible.  :class:`TrafficActionSpec` describes one such
definition; :func:`build_traffic_action` turns it into a
:class:`~repro.core.action.CAActionDefinition` whose role bodies read their
per-instance profile (service times, which role raises) from the driver.

Profiles are drawn when a job is *submitted*, from a sub-stream derived
from ``(seed, action, job index)`` — pure in those three values, like the
explorer's plan generator — so the behaviour of job ``i`` does not depend
on scheduling order, pool placement or what other jobs did.

:class:`TransactionalActionSpec` is the subclass whose roles increment
shared atomic counters (the ``Transfer`` template; its workload is
:mod:`repro.workload.transactional`).  :class:`ActionMix` is a weighted
set of specs; the driver samples it (from the ``"mix"`` stream) for jobs
submitted without an explicit action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union, TYPE_CHECKING

from ..core.action import CAActionDefinition, RoleDefinition
from ..core.exception_graph import generate_full_graph
from ..core.exceptions import ExceptionDescriptor, internal
from ..core.handlers import HandlerMap, HandlerResult
from ..objects.locks import DeadlockError, LockMode
from ..simkernel.rng import SeededStreams

if TYPE_CHECKING:  # pragma: no cover
    from .driver import WorkloadDriver


@dataclass(frozen=True, slots=True)
class JobProfile:
    """The pre-drawn per-instance behaviour of one job."""

    #: Virtual service time of each role's primary attempt, by role index.
    service_times: Tuple[float, ...]
    #: Index of the role that raises the action's fault (None: clean run).
    raiser: Optional[int] = None


@dataclass(frozen=True, slots=True)
class TrafficActionSpec:
    """Description of one load-generating CA-action definition.

    Attributes
    ----------
    name:
        Action (and registry) name.
    width:
        Number of cooperating roles — every instance occupies this many
        pool workers for its whole lifetime.
    mean_service:
        Mean of the exponential per-role service time.
    raise_probability:
        Probability that one instance raises the action's internal fault
        (role 0 raises, after half its service time), forcing resolution
        and coordinated handling on that instance.
    handler_time:
        Virtual time each role's resolving handler takes.
    weight:
        Relative frequency in an :class:`ActionMix`.
    """

    name: str
    width: int = 2
    mean_service: float = 1.0
    raise_probability: float = 0.0
    handler_time: float = 0.2
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("width must be at least 1")
        if self.mean_service <= 0:
            raise ValueError("mean_service must be positive")
        if not 0.0 <= self.raise_probability <= 1.0:
            raise ValueError("raise_probability must be in [0, 1]")
        if self.handler_time < 0:
            raise ValueError("handler_time must be non-negative")
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    @property
    def role_names(self) -> Tuple[str, ...]:
        return tuple(f"r{i + 1}" for i in range(self.width))

    @property
    def fault(self) -> ExceptionDescriptor:
        return internal(f"{self.name}_fault")

    def draw_profile(self, streams: SeededStreams, index: int) -> JobProfile:
        """Draw job ``index``'s profile — pure in ``(seed, name, index)``."""
        stream = streams.fresh_stream(f"job:{self.name}:{index}")
        service = tuple(stream.expovariate(1.0 / self.mean_service)
                        for _ in range(self.width))
        raiser: Optional[int] = None
        if self.raise_probability and \
                stream.random() < self.raise_probability:
            raiser = 0
        return JobProfile(service_times=service, raiser=raiser)

    def build(self, driver: "WorkloadDriver") -> CAActionDefinition:
        """The CA-action definition this spec generates, wired to ``driver``.

        Subclasses override this (and usually :meth:`draw_profile`) to
        plug custom role bodies through the same registry path — see
        :class:`TransactionalActionSpec`.
        """
        return build_traffic_action(self, driver)


def build_traffic_action(spec: TrafficActionSpec,
                         driver: "WorkloadDriver") -> CAActionDefinition:
    """Build the CA-action definition for ``spec``, wired to ``driver``.

    Each role body: wait half its drawn service time; if this instance's
    profile elected this role as the raiser, raise the action's fault
    (leaving the peers to be suspended and the resolver to resolve); wait
    the other half.  The resolving handler charges ``handler_time`` and
    completes, so faulty instances conclude as RECOVERED.
    """
    fault = spec.fault

    def resolving_handler(ctx):
        if spec.handler_time > 0:
            yield ctx.delay(spec.handler_time)
        return HandlerResult.success()

    def make_body(role_index: int):
        def body(ctx):
            profile = driver.profile_for(ctx.instance)
            half = profile.service_times[role_index] / 2.0
            if half > 0:
                yield ctx.delay(half)
            if profile.raiser == role_index:
                ctx.raise_exception(fault)
            if half > 0:
                yield ctx.delay(half)
        return body

    roles = [RoleDefinition(role, make_body(index),
                            HandlerMap(default_handler=resolving_handler))
             for index, role in enumerate(spec.role_names)]
    return CAActionDefinition(
        spec.name, roles, internal_exceptions=[fault],
        graph=generate_full_graph([fault], action_name=spec.name))


def account_name(index: int) -> str:
    """The canonical name of shared account ``index``."""
    return f"acct{index:03d}"


@dataclass(frozen=True, slots=True)
class TransactionalProfile(JobProfile):
    """Per-instance behaviour of one transactional job."""

    #: Account index each role operates on (distinct within the instance).
    accounts: Tuple[int, ...] = ()
    #: Whether the resolving handler aborts instead of completing.
    abort: bool = False


@dataclass(frozen=True, slots=True)
class TransactionalActionSpec(TrafficActionSpec):
    """A traffic action whose roles increment shared atomic counters.

    Extends :class:`TrafficActionSpec` with the shared-state knobs and
    plugs transactional role bodies in through :meth:`build` — the
    registry, driver and mix treat it exactly like any other spec.
    """

    #: Size of the shared account set instances draw from.
    n_accounts: int = 8
    #: Probability that a *raising* instance's handler aborts (backward
    #: recovery; otherwise the handler completes and the transaction
    #: commits the increments made before the fault).
    abort_probability: float = 0.5

    def __post_init__(self) -> None:
        # Explicit base call: dataclass(slots=True) recreates the class,
        # which breaks zero-argument super() in methods defined here.
        TrafficActionSpec.__post_init__(self)
        if self.n_accounts < self.width:
            raise ValueError("n_accounts must be at least width "
                             "(each role locks a distinct account)")
        if not 0.0 <= self.abort_probability <= 1.0:
            raise ValueError("abort_probability must be in [0, 1]")

    @property
    def deadlock(self) -> ExceptionDescriptor:
        """The fault a role raises when its lock request would deadlock."""
        return internal(f"{self.name}_deadlock")

    def draw_profile(self, streams: SeededStreams,
                     index: int) -> TransactionalProfile:
        """Draw job ``index``'s profile — pure in ``(seed, name, index)``."""
        stream = streams.fresh_stream(f"job:{self.name}:{index}")
        service = tuple(stream.expovariate(1.0 / self.mean_service)
                        for _ in range(self.width))
        raiser = None
        if self.raise_probability and \
                stream.random() < self.raise_probability:
            raiser = 0
        abort = raiser is not None and \
            stream.random() < self.abort_probability
        accounts = tuple(stream.sample(range(self.n_accounts), self.width))
        return TransactionalProfile(service_times=service, raiser=raiser,
                                    accounts=accounts, abort=abort)

    def build(self, driver: "WorkloadDriver") -> CAActionDefinition:
        """Role bodies locking/reading/incrementing shared accounts."""
        fault = self.fault
        deadlock_fault = self.deadlock

        def resolving_handler(ctx):
            profile = driver.profile_for(ctx.instance)
            if self.handler_time > 0:
                yield ctx.delay(self.handler_time)
            resolved = ctx.resolved_exception
            deadlocked = resolved is not None and \
                resolved.name != fault.name
            if deadlocked or profile.abort:
                return HandlerResult.abort()
            return HandlerResult.success()

        def make_body(role_index: int):
            def body(ctx):
                profile = driver.profile_for(ctx.instance)
                account = account_name(profile.accounts[role_index])
                half = profile.service_times[role_index] / 2.0
                # Pre-lock work first: roles of overlapping instances
                # then reach their lock requests at staggered times, so
                # conflicting acquisition orders genuinely interleave
                # (locking at the entry barrier would serialise whole
                # instances and no wait-for cycle could ever close).
                if half > 0:
                    yield ctx.delay(half)
                # Shared read first, then upgrade for the write: readers of
                # the same account overlap instead of serialising, and the
                # upgrade is still strict 2PL (the shared lock is never
                # released before the exclusive one is granted), so no
                # committed write can slip between the read and the write.
                # Two overlapping upgraders form a genuine deadlock — the
                # lock manager refuses the closing request and the victim
                # recovers — while reader/reader queues are granted
                # together (the mode-aware wait-for check; the old
                # mode-blind one refused them as phantom deadlocks).
                try:
                    yield ctx.transaction.lock(account, LockMode.SHARED)
                except DeadlockError:
                    ctx.raise_exception(deadlock_fault)
                value = ctx.read(account, "value")
                try:
                    yield ctx.transaction.lock(account, LockMode.EXCLUSIVE)
                except DeadlockError:
                    ctx.raise_exception(deadlock_fault)
                ctx.write(account, "value", value + 1)
                if profile.raiser == role_index:
                    ctx.raise_exception(fault)
                if half > 0:
                    yield ctx.delay(half)
            return body

        roles = [RoleDefinition(role, make_body(index),
                                HandlerMap(default_handler=resolving_handler))
                 for index, role in enumerate(self.role_names)]
        return CAActionDefinition(
            self.name, roles, internal_exceptions=[fault, deadlock_fault],
            graph=generate_full_graph([fault, deadlock_fault],
                                      action_name=self.name))


class ActionMix:
    """A weighted mix of :class:`TrafficActionSpec` definitions."""

    def __init__(self) -> None:
        self._specs: Dict[str, TrafficActionSpec] = {}
        self._order: List[str] = []

    def add(self, spec: Union[TrafficActionSpec, str],
            **overrides) -> TrafficActionSpec:
        """Add a spec — or resolve a registered template name first.

        Passing a string resolves it (with validated ``overrides``)
        through the default :data:`~repro.workload.registry.ACTIONS`
        registry, so mixes can be assembled entirely by name.
        """
        if isinstance(spec, str):
            from .registry import ACTIONS
            spec = ACTIONS.resolve(spec, **overrides)
        elif overrides:
            raise TypeError("overrides are only valid with a registered "
                            "action name, not a spec instance")
        if spec.name in self._specs:
            raise ValueError(f"action {spec.name!r} already in the mix")
        self._specs[spec.name] = spec
        self._order.append(spec.name)
        return spec

    def get(self, name: str) -> TrafficActionSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(f"unknown traffic action {name!r}; "
                           f"mix has {self._order}") from None

    def pick(self, streams: SeededStreams) -> TrafficActionSpec:
        """Sample one spec, weight-proportionally, from the ``"mix"`` stream."""
        if not self._order:
            raise ValueError("the action mix is empty")
        if len(self._order) == 1:
            return self._specs[self._order[0]]
        total = sum(self._specs[name].weight for name in self._order)
        point = streams.random("mix") * total
        cumulative = 0.0
        for name in self._order:
            cumulative += self._specs[name].weight
            if point < cumulative:
                return self._specs[name]
        return self._specs[self._order[-1]]

    def names(self) -> List[str]:
        return list(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return (self._specs[name] for name in self._order)
