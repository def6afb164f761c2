"""Lazy package surfaces (PEP 562).

A package whose ``__init__`` re-exports names from its submodules binds
what :func:`attach` returns as its module ``__getattr__``, ``__dir__``
and ``__all__`` instead of importing those submodules::

    __getattr__, __dir__, __all__ = attach(__name__, {
        "bounds": ["TimingParameters", "lemma1_completion_bound"],
        "histograms": ["LatencyHistogram"],
    })

``import repro.analysis`` then loads nothing else; the first
``repro.analysis.LatencyHistogram`` (or ``from repro.analysis import
LatencyHistogram``) imports ``repro.analysis.histograms`` and caches the
name in the package's globals, so every later lookup is a plain
attribute hit, as with an eager re-export.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def attach(package: str, exports: Mapping[str, Sequence[str]]
           ) -> Tuple[Callable[[str], Any], Callable[[], List[str]],
                      List[str]]:
    """``(__getattr__, __dir__, names)`` resolving ``exports`` lazily.

    ``exports`` maps each submodule (relative to ``package``) to the
    names the package re-exports from it; ``names`` lists them all, in
    that order.  Each listed submodule is itself an attribute of the
    package too (an empty name list re-exports just the submodule), as
    it was when the package imported it eagerly.
    """
    origin = {name: submodule for submodule, names in exports.items()
              for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        submodule = origin.get(name)
        if submodule is not None:
            value = getattr(importlib.import_module(
                f"{package}.{submodule}"), name)
        elif name in exports:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *origin, *exports})

    return __getattr__, __dir__, list(origin)
