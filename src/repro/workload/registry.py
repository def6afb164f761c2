"""Registered traffic-action plugins: name → :class:`TrafficActionSpec`.

The workload layer's counterpart to the scenario registry of
:mod:`repro.bench.engine`, built on the same
:class:`~repro.core.registry.Registry` base.  A registered spec is a
*template*: :meth:`TrafficActionRegistry.resolve` looks it up by name and
applies field overrides (validated against the spec dataclass's declared
fields — unknown keys and wrong types are structured
:class:`~repro.core.registry.ParamError`\\ s, raised before any kernel
spins up).  :meth:`~repro.workload.driver.WorkloadDriver.add_action` and
:class:`~repro.workload.actions.ActionMix` accept either a spec or a
registered name, so scenarios and user code can say
``driver.add_action("Serve", width=3)``.

The stock actions (the capacity sweep's homogeneous ``Serve``, the
mixed-traffic ``Ping``/``Crunch``/``Flaky`` trio and the transactional
``Transfer``, a :class:`TrafficActionSpec` subclass with extra fields and
a custom :meth:`~repro.workload.actions.TrafficActionSpec.build`) are
registered here, so every import order sees the same templates; plugins
register their own specs through :meth:`register`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..core.registry import (
    ParamError,
    ParamValidationError,
    Registry,
    format_params,
    params_from_dataclass,
    validate_params,
)
from .actions import TrafficActionSpec, TransactionalActionSpec


class TrafficActionRegistry(Registry[TrafficActionSpec]):
    """Name → :class:`TrafficActionSpec` template mapping."""

    kind = "traffic action"

    def register(self, spec: TrafficActionSpec) -> TrafficActionSpec:
        """Register ``spec`` as a template (alias of :meth:`add`)."""
        return self.add(spec)

    def validate_overrides(self, name: str,
                           overrides) -> List[ParamError]:
        """Check field overrides for template ``name`` (partial contract).

        ``name`` itself cannot be overridden — a resolved spec keeps the
        registered identity — and unknown/mistyped fields are reported
        against the spec (sub)class's declared fields.
        """
        spec = self.get(name)
        params = params_from_dataclass(type(spec), skip=("name",))
        return validate_params(f"traffic action {name!r}", params,
                               accepts_extra=False, given=overrides,
                               require=False)

    def resolve(self, name: str, /, **overrides) -> TrafficActionSpec:
        """Look up template ``name`` and apply validated field overrides.

        ``name`` is positional-only so that a ``name=...`` override lands
        in ``overrides`` and gets the structured not-overridable error.
        """
        spec = self.get(name)
        if not overrides:
            return spec
        errors = self.validate_overrides(name, overrides)
        if errors:
            raise ParamValidationError(errors)
        return replace(spec, **overrides)

    def describe_params(self, name: str) -> str:
        """One-line rendering of ``name``'s overridable fields."""
        spec = self.get(name)
        params = params_from_dataclass(type(spec), skip=("name",))
        return format_params(params, accepts_extra=False)


#: The process-wide default registry (stock actions below; plugins add
#: their own templates).
ACTIONS = TrafficActionRegistry()

#: The stock templates: the capacity sweep's homogeneous server and the
#: mixed-traffic trio (a fast clean action, a wide faulty one and a
#: narrow always-raising one).
STOCK_ACTIONS = (
    TrafficActionSpec("Serve", width=2, mean_service=1.0,
                      raise_probability=0.1),
    TrafficActionSpec("Ping", width=2, mean_service=0.5,
                      raise_probability=0.0, weight=3.0),
    TrafficActionSpec("Crunch", width=3, mean_service=1.5,
                      raise_probability=0.4, weight=2.0),
    TrafficActionSpec("Flaky", width=2, mean_service=1.0,
                      raise_probability=1.0, weight=1.0),
)

for _spec in STOCK_ACTIONS:
    ACTIONS.register(_spec)
del _spec

#: The stock transactional template: roles incrementing shared atomic
#: counters (the workload of :mod:`repro.workload.transactional`).
TRANSFER = ACTIONS.register(TransactionalActionSpec(
    "Transfer", width=2, mean_service=1.0, raise_probability=0.3,
    abort_probability=0.5, n_accounts=8))
