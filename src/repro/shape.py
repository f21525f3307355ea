"""One shape check for every document the farm accepts from outside.

Fault plans, farm configs, isolation certificates, campaigns and
their shard specs, and worker-wire frames arrive as JSON from a file,
a payload or a socket.  Each is described by a :class:`Table` of
``{key: (kind, default)}`` rows, and :func:`check` reads a document
against it: an object, no key the table does not name (unless it is
open), every required key, every value of its kind.  A kind is a type
or tuple of types (a bool is no ``int`` or number, ``object`` is
anything), a nested :class:`Table`, or ``[kind]`` for a list of that
kind; ``null`` passes where the default is ``None``.  What a
well-shaped value *means* (a range, an enum, a CIDR) stays with the
loader.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Tuple

__all__ = ["NUMBER", "REQUIRED", "ShapeError", "Table", "check"]

#: The default of a key that must be present.
REQUIRED = object()

#: The kind of a JSON number.
NUMBER = (int, float)


class Table(NamedTuple):
    """A document's rows in order; an ``open`` table lets keys it does
    not name through unchecked."""

    name: str
    fields: Dict[str, Tuple[Any, Any]]
    open: bool = False


class ShapeError(ValueError):
    """The message names where the problem is
    (``Campaign.shards[1] field 'index' must be int, got str``)."""


def check(table: Table, document: Any, path: str = "") -> dict:
    """``document``'s fields, defaults filled (and, for an open table,
    its other keys); a :class:`ShapeError` for the first problem, or
    for every unknown key at once.  ``path`` names the document."""
    path = path or table.name
    if not isinstance(document, dict):
        raise ShapeError(f"{path} must be a JSON object, got "
                         f"{type(document).__name__}")
    unknown = [] if table.open else sorted(set(document) - set(table.fields))
    if unknown:
        raise ShapeError(f"unknown {path} keys: {unknown}")
    out = dict(document) if table.open else {}
    for key, (kind, default) in table.fields.items():
        where = f"{path} field {key!r}"
        if key in document:
            out[key] = _value(kind, document[key], default,
                              f"{path}.{key}", where)
        elif default is REQUIRED:
            raise ShapeError(f"{where} is required")
        else:
            out[key] = default
    return out


def _value(kind: Any, value: Any, default: Any, path: str,
           where: str) -> Any:
    if value is None and default is None:
        return None
    if isinstance(kind, Table):
        return check(kind, value, path)
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ShapeError(f"{where} must be list, got "
                             f"{type(value).__name__}")
        return [_value(kind[0], item, REQUIRED, f"{path}[{index}]",
                       f"{where} item {index}")
                for index, item in enumerate(value)]
    if not isinstance(value, kind) or (
            isinstance(value, bool) and kind not in (bool, object)):
        names = kind if isinstance(kind, tuple) else (kind,)
        raise ShapeError(f"{where} must be "
                         f"{' or '.join(k.__name__ for k in names)}, "
                         f"got {type(value).__name__}")
    return value
