"""One JSON codec for the frozen dataclasses the planes exchange.

Every opt-in plane commits a seeded plan (``experiments/*_day.json``),
sweeps it into arms and reports the arms side by side; plans, arms,
reports and configs all derive from :class:`Record` instead of each
hand-writing ``to_dict``/``from_dict``/``save``/``load``:

* :meth:`Record.to_dict` emits the dataclass fields in declaration
  order, then the derived values the class names in ``derived``;
  nested records, mappings and sequences become plain JSON data;
* :meth:`Record.from_dict` rebuilds nested values with the decoder a
  field declares through :func:`decoded`, skips the ``derived`` names
  :meth:`Record.to_dict` emitted, falls back to field defaults and
  raises :class:`ValueError` naming the class and the key when a
  required field is missing or a key is neither a field nor derived (a
  stale plan carrying a deleted knob fails loudly);
* :meth:`Record.save`/:meth:`Record.load` write and read JSON with
  ``indent=1`` and a trailing newline — the committed plans' format;
* a numeric field declares its :func:`domain` beside it, and every
  construction, from JSON or from Python, checks it; a field annotated
  ``str`` or ``Tuple[str, ...]`` holds only strings, checked the same
  way.

:func:`find` is the shared arm lookup of every report.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from collections.abc import Mapping
from typing import (Any, Callable, ClassVar, Dict, Iterable, Optional, Tuple,
                    TypeVar)

R = TypeVar("R", bound="Record")
T = TypeVar("T")


def decoded(decode: Callable[[Any], Any], **kwargs) -> Any:
    """A dataclass field whose JSON value :meth:`Record.from_dict`
    rebuilds with ``decode`` (``kwargs`` go to :func:`dataclasses.field`)."""
    return dataclasses.field(metadata={"decode": decode}, **kwargs)


class _Domain:
    """Where every number in one field may lie (see :func:`domain`)."""

    def __init__(self, bound: str, finite: bool, integer: bool):
        op, _, number = bound.partition(" ")
        if bound != "any" and (op not in (">", ">=") or not number):
            raise ValueError(f"unknown lower bound {bound!r}")
        self.low = -math.inf if bound == "any" else float(number)
        self.strict, self.finite = op == ">", finite
        self.types = int if integer else (int, float)
        kind = ("an integer" if integer
                else "a finite number" if finite else "a number")
        self.text = kind if bound == "any" else f"{kind} {bound}"

    def holds(self, value: Any) -> bool:
        if isinstance(value, bool) or not isinstance(value, self.types):
            return False
        if self.finite and not math.isfinite(value):
            return False
        # NaN compares False with every bound, -inf included.
        return value > self.low if self.strict else value >= self.low

    def check(self, owner: str, name: str, value: Any) -> None:
        if isinstance(value, Mapping):
            value = tuple(value.values())
        if isinstance(value, (tuple, list)):
            for item in value:
                self.check(owner, name, item)
        elif not self.holds(value):
            raise ValueError(f"{owner}: field {name!r} must be "
                             f"{self.text}, got {value!r}")


def domain(bound: str, *, integer: bool = False, finite: bool = True,
           decode: Optional[Callable[[Any], Any]] = None,
           **kwargs) -> Any:
    """A numeric dataclass field whose every number :class:`Record`
    checks at construction, in tuples, lists and mapping values too.

    ``bound`` is a lower bound (``"> 0"``, ``">= 0"``, ``">= 1"``) or
    ``"any"`` for a field that may really be negative.  ``finite=False``
    lets ``inf`` through (NaN never passes); ``integer`` asks for ints.
    ``None`` passes only where it is the default (an ``Optional``).
    ``decode`` is as for :func:`decoded`; ``kwargs`` go to
    :func:`dataclasses.field`.
    """
    return dataclasses.field(metadata={
        "domain": _Domain(bound, finite, integer), "decode": decode},
        **kwargs)


@functools.lru_cache(maxsize=None)
def _domains(cls: type) -> Tuple[Tuple[str, Any, _Domain], ...]:
    # Once per class, so a record that declares no domain scans nothing.
    return tuple((f.name, f.default, f.metadata["domain"])
                 for f in dataclasses.fields(cls) if "domain" in f.metadata)


@functools.lru_cache(maxsize=None)
def _strings(cls: type) -> Tuple[Tuple[str, Any, bool], ...]:
    # Once per class, as _domains: (name, default, is a tuple) of every
    # field annotated ``str`` or ``Tuple[str, ...]``.
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.default, hints[f.name] is not str)
                 for f in dataclasses.fields(cls)
                 if hints[f.name] in (str, Tuple[str, ...]))


def _all_strings(value: Any, many: bool) -> bool:
    if not many:
        return isinstance(value, str)
    return (isinstance(value, (tuple, list))
            and all(isinstance(item, str) for item in value))


def many(decode: Callable[[Any], Any]) -> Callable[[Any], Tuple]:
    """Decoder for a JSON list: a tuple of ``decode``-d items."""
    return lambda items: tuple(decode(item) for item in items)


def keyed(decode: Callable[[Any], Any]) -> Callable[[Any], Dict]:
    """Decoder for a JSON object: the same keys, ``decode``-d values."""
    return lambda items: {key: decode(item) for key, item in items.items()}


def _plain(value: Any) -> Any:
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class Record:
    """Mixin for frozen dataclasses that travel as JSON."""

    #: Properties (or no-argument methods) appended to :meth:`to_dict`.
    derived: ClassVar[Tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        """Check every declared :func:`domain` and every string field;
        a subclass's own ``__post_init__`` calls this first, then adds
        only cross-field and kind rules."""
        cls = type(self)
        for name, default, rule in _domains(cls):
            value = getattr(self, name)
            if value is not None or default is not None:
                rule.check(cls.__name__, name, value)
        for name, default, many in _strings(cls):
            value = getattr(self, name)
            if ((value is not None or default is not None)
                    and not _all_strings(value, many)):
                kind = "a list of strings" if many else "a string"
                raise ValueError(f"{cls.__name__}: field {name!r} must be "
                                 f"{kind}, got {value!r}")

    def to_dict(self) -> Dict:
        out = {f.name: _plain(getattr(self, f.name))
               for f in dataclasses.fields(self)}
        for name in self.derived:
            value = getattr(self, name)
            out[name] = _plain(value() if callable(value) else value)
        return out

    @classmethod
    def from_dict(cls: type[R], data: Mapping) -> R:
        if not isinstance(data, Mapping):
            raise ValueError(f"{cls.__name__}: expected a JSON object, "
                             f"got {type(data).__name__}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for key in data:
            if key not in fields and key not in cls.derived:
                raise ValueError(f"{cls.__name__}: unknown key {key!r}")
        kwargs = {}
        for f in fields.values():
            if f.name not in data:
                if (f.default is dataclasses.MISSING
                        and f.default_factory is dataclasses.MISSING):
                    raise ValueError(f"{cls.__name__}: missing required "
                                     f"field {f.name!r}")
                continue
            decode = f.metadata.get("decode") or (lambda value: value)
            try:
                kwargs[f.name] = decode(data[f.name])
            except (TypeError, AttributeError) as exc:  # a JSON misshape
                raise ValueError(f"{cls.__name__}: field {f.name!r}: "
                                 f"{exc}") from exc
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"{cls.__name__}: {exc}") from exc

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1)
            handle.write("\n")

    @classmethod
    def load(cls: type[R], path: str) -> R:
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def find(items: Iterable[T], **key) -> T:
    """The first of ``items`` whose attributes equal ``key``."""
    for item in items:
        if all(getattr(item, name) == value for name, value in key.items()):
            return item
    raise KeyError("no arm with " + ", ".join(
        f"{name}={value!r}" for name, value in key.items()))
