"""Lazy package exports: a public name is imported on first access.

Each package ``__init__`` states which submodule defines each of its
public names and hands that table to :func:`lazy_exports`, which
returns the package's PEP 562 ``__getattr__`` and ``__dir__``.  The
first access to a name imports its submodule and caches the value in
the package's globals, so later lookups never reach the hook, and
importing a package costs only its ``__init__``.

PEP 562 covers attribute access from outside a module, not the
module's own global lookups: code in an ``__init__`` that uses one of
its lazy names must import that name itself, where it runs.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Callable, Iterable, List, Mapping, Tuple


class _ExportOverSubmodule(types.ModuleType):
    """A package with a public name that is also a submodule's name.

    Importing a submodule binds it on its package.  Where the package
    exports an attribute of that name (``repro.exec.heartbeat``, the
    function in the module of the same name), the binding would replace
    the export with the module whenever the submodule loads after the
    package.  Binding the submodule's attribute instead keeps the
    export the same in every import order.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if (name in self.__dict__["_exported_over_submodule"]
                and isinstance(value, types.ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(
    namespace: dict,
    exports: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a lazy package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a
    submodule, relative to the package, to the public names it defines.
    Those submodules, and the ones named in ``submodules``, also load
    on first attribute access.  ``__dir__`` lists the package's globals
    and its ``__all__``.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in exports.items()
             for name in names}
    modules = set(exports) | set(submodules)
    clashes = frozenset(name for name, module in where.items()
                        if name == module)
    if clashes:
        namespace["_exported_over_submodule"] = clashes
        sys.modules[package].__class__ = _ExportOverSubmodule

    def __getattr__(name: str) -> Any:
        if name in where:
            module = importlib.import_module(f"{package}.{where[name]}")
            value = getattr(module, name)
        elif name in modules:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__
