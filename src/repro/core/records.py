"""One JSON codec for the frozen dataclasses the planes exchange.

Every opt-in plane commits a seeded plan (``experiments/*_day.json``),
sweeps it into arms and reports the arms side by side; plans, arms,
reports and configs all derive from :class:`Record` instead of each
hand-writing ``to_dict``/``from_dict``/``save``/``load``:

* :meth:`Record.to_dict` emits the dataclass fields in declaration
  order, then the derived values the class names in ``derived``;
  nested records, mappings and sequences become plain JSON data;
* :meth:`Record.from_dict` rebuilds nested values with the decoder a
  field declares through :func:`decoded`, ignores unknown keys, falls
  back to field defaults and raises :class:`ValueError` naming the class
  and the field when a required one is missing;
* :meth:`Record.save`/:meth:`Record.load` write and read JSON with
  ``indent=1`` and a trailing newline — the committed plans' format.

:func:`find` is the shared arm lookup of every report.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping
from typing import Any, Callable, ClassVar, Dict, Iterable, Tuple, TypeVar

R = TypeVar("R", bound="Record")
T = TypeVar("T")


def decoded(decode: Callable[[Any], Any], **kwargs) -> Any:
    """A dataclass field whose JSON value :meth:`Record.from_dict`
    rebuilds with ``decode`` (``kwargs`` go to :func:`dataclasses.field`)."""
    return dataclasses.field(metadata={"decode": decode}, **kwargs)


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
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name not in data:
                if (f.default is dataclasses.MISSING
                        and f.default_factory is dataclasses.MISSING):
                    raise ValueError(f"{cls.__name__}: missing required "
                                     f"field {f.name!r}")
                continue
            decode = f.metadata.get("decode")
            value = data[f.name]
            kwargs[f.name] = value if decode is None else decode(value)
        return cls(**kwargs)

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
