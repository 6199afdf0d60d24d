"""Lazy package exports (PEP 562): an ``__init__`` declares, never imports.

Every package ``__init__`` in ``repro`` declares its public names in one
export table and imports no implementation.  :func:`lazy_exports` derives
the package's ``__all__``, ``__getattr__`` and ``__dir__`` from the table,
so the public API reads as if the package had imported everything —
``from repro import GraphWord2Vec``, ``repro.serve.ExactIndex``,
``from repro.experiments import fig6`` — while a process loads only the
modules it touches: ``import repro.serve.engine`` loads the serving stack,
not the trainers, the cluster simulator or the static analyzer.

A name is imported from its module on first access and then cached in the
package namespace.  One case is bound eagerly: a name exported from a
module of the same name (``repro.galois.do_all`` the function, from
``repro.galois.do_all`` the module).  The import system binds every loaded
submodule on its package, which would shadow such an export with the
module once anything imported it; importing the module while the package
initializes, then binding the name, keeps the export.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    table: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps a module, named relative to ``package``, to the names it
    exports; ``submodules`` are exported as themselves (``repro.experiments``
    exports ``fig6``).  ``__all__`` lists the table's names in order, then
    the submodules; ``tests/test_public_api.py`` holds every table to
    resolving, by every route, to one object per name.
    """
    submodules = tuple(submodules)
    origin = {
        name: f"{package}.{module}" for module, names in table.items() for name in names
    }
    origin.update((name, f"{package}.{name}") for name in submodules)
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(module)
        if name not in submodules:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    for module, names in table.items():
        if module in names:
            __getattr__(module)
    return list(origin), __getattr__, __dir__
