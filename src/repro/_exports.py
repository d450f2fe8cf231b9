"""Lazy package exports (PEP 562).

Each package ``__init__`` declares its public names once, as a table from
submodule to names, and binds what :func:`lazy_exports` returns::

    __getattr__, __dir__, __all__ = lazy_exports(globals(), {
        ".spec": ("Architecture",),
    })

A name's submodule is imported on the name's first access and the value
is cached in the package globals, so importing a package loads only what
its ``__init__`` body itself uses. ``importlib.import_module`` holds the
per-module import lock, so threads that race on a first access get the
same object. This module imports nothing from :mod:`repro`.
"""

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any],
    table: Mapping[str, Sequence[str]],
    own: Sequence[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """Build a package's ``(__getattr__, __dir__, __all__)``.

    Args:
        namespace: the package's ``globals()``.
        table: ``{submodule: names}``; submodules are relative to the
            package (``".spec"``, ``".arch"``).
        own: public names the ``__init__`` body defines itself; they
            lead ``__all__``.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__, [*own, *where]
