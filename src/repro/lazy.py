"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that imports the names it re-exports loads every
one of its submodules, and all they import, as soon as anything inside
the package is imported: ``repro serve`` would load the simulator's
netlist monitors and the load generator's ``multiprocessing`` just to
reach the server module.  :func:`lazy_exports` gives such a package a
module ``__getattr__`` that imports a re-exported name's submodule the
first time the name is read, so ``from repro.server import
DebugClient`` keeps working while ``import repro.server.server`` loads
only what the server itself imports.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, object], exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of the package whose
    ``globals()`` is *namespace*: ``exports`` maps each submodule name
    to the names it re-exports.  A name is imported on first read and
    then kept in *namespace*, so later reads are plain lookups."""
    package = namespace["__name__"]
    owner = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__
