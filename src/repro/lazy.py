"""PEP 562 lazy exports: a package that resolves its names on first use.

A package ``__init__`` that would otherwise import every submodule just
to re-export their names binds the two hooks :func:`lazy_exports`
returns instead::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "runner": ("Runner", "RunStats"),
    })

``import pkg`` then loads nothing else.  The first read of
``pkg.Runner`` (or ``from pkg import Runner``) imports ``pkg.runner``
and caches the object in the package namespace, so every later read is
a plain attribute lookup.  A name that is also a submodule's name must
not be exported this way: importing the submodule would rebind it
(docs/PERF.md §9).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(package: str, exports: Mapping[str, tuple[str, ...]],
                 ) -> tuple[Callable[[str], object], Callable[[], list]]:
    """``(__getattr__, __dir__)`` for ``package`` over a
    ``{submodule: names}`` map."""
    where = {name: f"{package}.{module}"
             for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
