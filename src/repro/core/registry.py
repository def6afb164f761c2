"""Shared plugin-registry base with declared-parameter validation.

Both plugin surfaces of the reproduction — the scenario registry of
:mod:`repro.bench.engine` and the traffic-action registry of
:mod:`repro.workload.registry` — are instances of the same model:

* a **registry** maps a unique name to a spec (duplicate registration is
  an error, lookup failures list what *is* registered);
* every spec **declares its parameters** (derived from a runner's
  signature or a spec dataclass's fields), and
* candidate parameter mappings are **validated before any kernel spins
  up**, producing structured :class:`ParamError` records that name the
  owner and the offending key — actionable errors instead of a
  ``TypeError`` three frames deep into a sweep.

This module holds the shared machinery: :class:`Registry` (the name →
spec base class), :class:`ParamSpec` (one declared parameter),
:func:`resolve` (a ``"module:function"`` reference, imported on use),
:func:`params_from_callable` / :func:`params_from_dataclass` (derivation)
and :func:`validate_params` (the checking contract).  Type checking is
deliberately shallow: only ``bool``/``int``/``float``/``str`` and
``Optional`` combinations thereof are enforced (an ``int`` is accepted
where a ``float`` is declared, a ``bool`` is not); any richer annotation
is documented in listings but not checked.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import typing
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

#: Simple annotation -> acceptable runtime types.  ``float`` accepts
#: ``int`` (standard numeric widening); ``bool`` is never accepted for
#: ``int``/``float`` despite being a subclass (``True`` as a thread count
#: is a bug, not a value).
_SIMPLE_TYPES: Dict[type, Tuple[type, ...]] = {
    bool: (bool,),
    int: (int,),
    float: (int, float),
    str: (str,),
}

_REQUIRED = inspect.Parameter.empty


@dataclass(frozen=True)
class ParamSpec:
    """One declared parameter of a registered spec.

    ``types`` is the tuple of acceptable runtime types, or ``None`` when
    the annotation is absent or too rich to check shallowly (then only
    unknown-key and missing-required checks apply to the parameter).
    """

    name: str
    annotation: str = ""
    types: Optional[Tuple[type, ...]] = None
    required: bool = False
    default: Any = None

    def describe(self) -> str:
        """Render for listings: ``name: type = default`` or ``(required)``."""
        label = self.name if not self.annotation \
            else f"{self.name}: {self.annotation}"
        if self.required:
            return f"{label} (required)"
        return f"{label} = {self.default!r}"


@dataclass(frozen=True)
class ParamError:
    """One structured validation failure (also readable as its message)."""

    owner: str     # e.g. "scenario 'capacity'" or "traffic action 'Serve'"
    key: str       # the offending parameter name
    kind: str      # "unknown" | "missing" | "type"
    message: str

    def __str__(self) -> str:
        return self.message


class ParamValidationError(ValueError):
    """Raised when parameters fail validation; carries the error records."""

    def __init__(self, errors: Sequence[ParamError]) -> None:
        self.errors: Tuple[ParamError, ...] = tuple(errors)
        super().__init__("; ".join(str(error) for error in self.errors))


def _annotation_display(annotation: Any) -> str:
    if annotation is _REQUIRED or annotation is None:
        return ""
    if isinstance(annotation, type):
        return annotation.__name__
    if isinstance(annotation, str):
        return annotation
    text = str(annotation)
    return text.replace("typing.", "")


def _acceptable_types(annotation: Any) -> Optional[Tuple[type, ...]]:
    """The runtime types a value may have, or ``None`` for "unchecked"."""
    if annotation in _SIMPLE_TYPES:
        return _SIMPLE_TYPES[annotation]
    if typing.get_origin(annotation) is Union:
        members: List[type] = []
        for arg in typing.get_args(annotation):
            if arg is type(None):
                members.append(type(None))
            elif arg in _SIMPLE_TYPES:
                members.extend(_SIMPLE_TYPES[arg])
            else:
                return None
        return tuple(dict.fromkeys(members))
    return None


def _resolved_hints(obj: Any) -> Dict[str, Any]:
    """Type hints of ``obj``, or ``{}`` when they cannot be resolved.

    Under ``from __future__ import annotations`` every annotation is a
    string; resolution can fail for ``TYPE_CHECKING``-only names, which
    must degrade to "unchecked", not break registration.
    """
    try:
        return typing.get_type_hints(obj)
    except Exception:
        return {}


def resolve(owner: str, target: Union[Callable[..., Any], str]
            ) -> Callable[..., Any]:
    """``target`` itself, or the callable its ``"module:function"`` names.

    A reference is imported on use, as :mod:`repro._lazy` imports a
    package's re-exports; one that does not resolve raises
    ``ImportError`` naming ``owner`` and the reference.
    """
    if not isinstance(target, str):
        return target
    module, _, name = target.partition(":")
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as error:
        raise ImportError(f"{owner}: cannot resolve {target!r} ({error})"
                          ) from error


def params_from_callable(func: Callable[..., Any]
                         ) -> Tuple[Tuple[ParamSpec, ...], bool]:
    """Derive ``(declared params, accepts_extra)`` from a signature.

    ``accepts_extra`` is true when the callable takes ``**kwargs`` — its
    named parameters are still checked, but unknown keys pass through
    (the runner forwards them to a lower-level function).
    """
    try:
        signature = inspect.signature(func)
    except (TypeError, ValueError):
        return (), True
    hints = _resolved_hints(func)
    params: List[ParamSpec] = []
    accepts_extra = False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            accepts_extra = True
            continue
        if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            continue
        annotation = hints.get(parameter.name, parameter.annotation)
        required = parameter.default is _REQUIRED
        params.append(ParamSpec(
            name=parameter.name,
            annotation=_annotation_display(annotation),
            types=_acceptable_types(annotation),
            required=required,
            default=None if required else parameter.default))
    return tuple(params), accepts_extra


def params_from_dataclass(cls: type,
                          skip: Sequence[str] = ()) -> Tuple[ParamSpec, ...]:
    """Derive declared params from a (spec) dataclass's fields."""
    hints = _resolved_hints(cls)
    params: List[ParamSpec] = []
    for field in dataclasses.fields(cls):
        if field.name in skip:
            continue
        annotation = hints.get(field.name, field.type)
        required = (field.default is dataclasses.MISSING
                    and field.default_factory is dataclasses.MISSING)
        default = None
        if not required:
            default = (field.default
                       if field.default is not dataclasses.MISSING
                       else field.default_factory())
        params.append(ParamSpec(
            name=field.name,
            annotation=_annotation_display(annotation),
            types=_acceptable_types(annotation),
            required=required,
            default=default))
    return tuple(params)


def validate_params(owner: str, params: Sequence[ParamSpec],
                    accepts_extra: bool, given: Mapping[str, Any],
                    require: bool = True) -> List[ParamError]:
    """Check ``given`` against the declared ``params`` of ``owner``.

    Returns one :class:`ParamError` per problem (empty list: valid).
    With ``require=False`` the missing-required check is skipped — the
    contract for *partial* parameter sets such as spec overrides.
    """
    by_name = {spec.name: spec for spec in params}
    errors: List[ParamError] = []
    for key in given:
        if key not in by_name:
            if accepts_extra:
                continue
            declared = ", ".join(sorted(by_name)) or "none"
            errors.append(ParamError(
                owner=owner, key=key, kind="unknown",
                message=f"{owner}: unknown parameter {key!r} "
                        f"(declared: {declared})"))
    if require:
        for spec in params:
            if spec.required and spec.name not in given:
                errors.append(ParamError(
                    owner=owner, key=spec.name, kind="missing",
                    message=f"{owner}: missing required parameter "
                            f"{spec.name!r}"))
    for key, value in given.items():
        spec = by_name.get(key)
        if spec is None or spec.types is None:
            continue
        bad_bool = isinstance(value, bool) and bool not in spec.types
        if bad_bool or not isinstance(value, spec.types):
            expected = spec.annotation or \
                "/".join(t.__name__ for t in spec.types)
            errors.append(ParamError(
                owner=owner, key=key, kind="type",
                message=f"{owner}: parameter {key!r} expects {expected}, "
                        f"got {type(value).__name__} ({value!r})"))
    return errors


def format_params(params: Sequence[ParamSpec], accepts_extra: bool) -> str:
    """One-line rendering of a declared-parameter list for ``--list``."""
    parts = [spec.describe() for spec in params]
    if accepts_extra:
        parts.append("**options")
    return ", ".join(parts) if parts else "(none)"


SpecT = TypeVar("SpecT")


class Registry(Generic[SpecT]):
    """Name → spec mapping: the base both plugin registries build on.

    Specs must expose a ``name`` attribute.  Subclasses set ``kind`` (used
    in error messages) and typically add a registration decorator plus a
    validation entry point built on :func:`validate_params`.
    """

    #: Human-readable kind of the registered specs (error messages).
    kind = "spec"

    def __init__(self) -> None:
        self._specs: Dict[str, SpecT] = {}

    def add(self, spec: SpecT) -> SpecT:
        """Register ``spec``; duplicate names are an error."""
        name = spec.name  # type: ignore[attr-defined]
        if name in self._specs:
            raise ValueError(f"{self.kind} {name!r} already registered")
        self._specs[name] = spec
        return spec

    def get(self, name: str) -> SpecT:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(f"unknown {self.kind} {name!r}; "
                           f"registered: {sorted(self._specs)}") from None

    def names(self) -> List[str]:
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[SpecT]:
        return iter(self._specs.values())
