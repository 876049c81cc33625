"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
otherwise import every submodule whenever any one of them is imported:
``import repro.core.config`` would load the DES engine, and the
simulator would load the JPEG codec through ``repro.dataprep.cost``.
:func:`lazy_exports` keeps the package's public names while importing
each submodule only when one of its names is first read::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "engine": ("PrepEngine", "make_shards"),
        ...
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose public
    names are ``exports[submodule]``, each read from
    ``package.submodule`` on first access and then bound on the package.
    """
    namespace = sys.modules[package].__dict__
    owners: Dict[str, str] = {
        name: f"{package}.{module}"
        for module, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            owner = owners[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(owner), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    for name, owner in owners.items():
        if owner == f"{package}.{name}":
            # Loading a submodule binds it on the package under its own
            # name, which would shadow a re-export of that name whenever
            # the submodule loaded first; such a re-export loads now.
            __getattr__(name)
    return sorted(owners), __getattr__, __dir__
