"""Lazy package exports: a package imports a submodule on first touch.

Every package ``__init__`` in :mod:`repro` declares its public names
with :func:`lazy_exports` instead of importing its submodules, so a
process pays only for the modules its run actually touches::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
        ".deployment": ("WebServiceDeployment",),
        "..trace.context": ("SpanContext",),
        ".": ("paperdata",),
    })

Each key is what ``from <key> import <names>`` would say, relative to
the package; ``"."`` exports the named submodules themselves.  The
returned ``__getattr__`` (PEP 562) imports the owning module on first
access and caches the value in the package's globals, so every later
lookup is an ordinary attribute read.  A name outside the table that
names a submodule (``repro.web`` after ``import repro``) is imported
the same way; anything else raises :class:`AttributeError`.

Modules load through the ``__import__`` builtin, so ``python -X
importtime`` reports them like any ``import`` statement.
"""

import sys
from typing import Callable, Dict, List, MutableMapping, Sequence, Tuple


def lazy_exports(package: str, namespace: MutableMapping[str, object],
                 table: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]],
                            List[str]]:
    """Return the package's ``(__getattr__, __dir__, __all__)``.

    ``package`` is the package's ``__name__``, ``namespace`` its
    ``globals()`` and ``table`` maps a relative module to the names it
    provides.  ``__all__`` lists every name of the table in order.
    """
    owners = {name: f"{package}.{name}" if source == "."
              else _absolute(source, package)
              for source, names in table.items() for name in names}
    modules = set(table.get(".", ()))

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            return _submodule(package, name)
        value = _load(module)
        if name not in modules:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__, list(owners)


def _absolute(source: str, package: str) -> str:
    """The absolute name of ``source``, relative to ``package``."""
    bare = source.lstrip(".")
    base = package.rsplit(".", len(source) - len(bare) - 1)[0]
    return f"{base}.{bare}"


def _load(module: str) -> object:
    __import__(module)
    return sys.modules[module]


def _submodule(package: str, name: str) -> object:
    """``package.name`` as a submodule, or AttributeError if there is none."""
    missing = AttributeError(f"module {package!r} has no attribute {name!r}")
    if name.startswith("__"):
        raise missing
    try:
        return _load(f"{package}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{package}.{name}":
            raise
    raise missing
