"""Lazy package exports (PEP 562), after Scientific Python SPEC 1.

Each package ``__init__`` declares one table that maps every defining
module to the names the package re-exports from it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.boolf.cube": ("Cube",),
        "repro.boolf.sop": ("Sop",),
    })

A name's module is imported on first access and the value is cached in
the package namespace, so later lookups never reach ``__getattr__`` and
importing a package costs nothing until one of its names is used.  A
submodule that has not been imported yet is imported on attribute access,
as the eager re-exports used to guarantee; any other name raises
:class:`AttributeError`.

An export that shares its name with its own submodule (``boolf.isop``)
must be bound eagerly by the package: importing the submodule later
rebinds the package attribute to the module object.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list], list]:
    """Return ``(__getattr__, __dir__, __all__)`` for ``package``."""
    home = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, list(home)
