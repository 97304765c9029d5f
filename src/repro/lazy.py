"""Lazy package exports (PEP 562).

Each package of ``repro`` declares its public names once, as a
``{name: module}`` map, and :func:`lazy_exports` turns that map into
the package's ``__all__`` plus the module-level ``__getattr__`` and
``__dir__`` that import a name's module on first access.  Importing a
package therefore compiles and runs none of its submodules: a command
pays only for the modules it actually reads from.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, str]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package whose
    globals are ``namespace``.

    ``exports`` maps each public name to the module defining it,
    absolute or relative to the package.  A resolved name is stored in
    ``namespace``, so later reads are plain attribute lookups.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return list(exports), __getattr__, __dir__
