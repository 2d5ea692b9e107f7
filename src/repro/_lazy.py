"""PEP 562 lazy re-exports.

A package lists which submodule each of its public names lives in and
imports that submodule when the name is first used, so a process that
only routes requests never loads numpy or sqlite3 for names it never
touches.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: "dict[str, str]"):
    """The module-level ``__getattr__`` for ``package``: resolves each name
    in ``exports`` (name -> defining module) on first access and caches it
    in the package's namespace."""

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
