"""Lazy package exports: a package's public names, imported on first use.

A package front door (``repro``, ``repro.experiments``, ...) lists its public
names with the submodule that defines each, and gets back the PEP 562 module
``__getattr__`` and ``__dir__`` that import that submodule the first time a
name is read.  So ``import repro`` loads no simulator code, and a run loads
only the modules it uses, while ``from repro import simulate``, ``from repro
import *`` and ``dir(repro)`` behave exactly as with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``.

    ``exports`` maps a submodule (relative to ``package``, e.g.
    ``".runner"``) to the names it defines.  A resolved name is stored in the
    package namespace, so later reads are plain attribute lookups.
    """
    where: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | where.keys())

    return __getattr__, __dir__
