"""Re-exports resolved on first access (PEP 562).

A package ``__init__`` that imported every re-exported name eagerly would
make ``import repro.serve`` pay for scipy and the whole generation stack,
because importing any submodule runs its parents' ``__init__`` first.
:func:`lazy_exports` builds the module-level ``__getattr__`` / ``__dir__``
pair that imports a name's defining module only when the name is first
read, then caches the object in the package namespace.  Attribute access,
``from package import name`` and ``import *`` all go through it, and each
resolves to the very object the defining module holds.

A name that is also a submodule of the package (``repro.graphs.egonet``
is both a module and a function) must be imported eagerly instead: once
the submodule is loaded, the import system sets the package attribute to
the module and ``__getattr__`` is never consulted again.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Dict[str, Sequence[str]], *,
                 submodules: Sequence[str] = ()
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for *package*: each name in *exports*
    (``{defining module: names}``) is read from its module, and each name
    in *submodules* is the subpackage ``package.name`` itself."""
    homes = {name: module for module, names in exports.items()
             for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        if name in submodules:
            return importlib.import_module(f"{package}.{name}")
        home = homes.get(name)
        if home is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(homes) | set(submodules))

    return __getattr__, __dir__
