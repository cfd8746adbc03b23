"""Shapes of the JSON values the CLI reads, and the one check that holds a value to one.

A shape is a callable that raises on a value not of its kind; ``must`` says
what it asks. Where a shape is taken, a dict stands for an object with those
fields (a name ending in ``?`` may be absent; others are let be) and a one-item
list for a list of that item. Readers declare their shapes once, at module
level, ``check`` what they decode and then trust the types.
"""

from __future__ import annotations

import json
import sys
from itertools import count, repeat


class _Wrong(Exception):
    """A value not of its shape, or a missing field (``must`` None); containers add to ``path``."""

    def __init__(self, must, value):
        self.must, self.value, self.path = must, value, []


def _shape(must: str, body):
    body.must = must
    return body


def kind(must: str, test, parts=None):
    """The shape of the values ``test`` accepts, if each (key, shape, item) of ``parts`` fits."""
    def body(value):
        if not test(value):
            raise _Wrong(must, value)
        if parts:
            key = None
            try:
                for key, shape, item in parts(value):
                    shape(item)
            except _Wrong as wrong:
                wrong.path.append(key)
                raise
    return _shape(must, body)


ANY = kind("any value", lambda v: True)
STRING = kind("a string", lambda v: type(v) is str)
TEXT = kind("a non-blank string", lambda v: type(v) is str and v.strip() != "")
INT = kind("an integer", lambda v: type(v) is int)  # a bool is not one
_MAX = sys.float_info.max  # an int beyond a float's range fails float arithmetic
NUMBER = kind("a finite number", lambda v: type(v) in (int, float) and -_MAX <= v <= _MAX)
BOOL = kind("true or false", lambda v: type(v) is bool)
LIST = kind("a list", lambda v: type(v) is list)
OBJECT = kind("a JSON object", lambda v: type(v) is dict)


def _of(spec):
    if type(spec) is dict:
        return obj(spec)
    return list_of(*spec) if type(spec) is list else spec


def obj(fields: dict):
    """An object with each of ``fields``, of its shape."""
    fields = [(name.rstrip("?"), _of(s), not name.endswith("?")) for name, s in fields.items()]

    def body(value):
        OBJECT(value)
        name = None
        try:
            for name, shape, needed in fields:
                if name in value:
                    shape(value[name])
                elif needed:
                    raise _Wrong(None, None)
        except _Wrong as wrong:
            wrong.path.append(name)
            raise
    return _shape(OBJECT.must, body)


def list_of(item):
    """A list of items of shape ``item``."""
    item = _of(item)
    return kind(LIST.must, lambda v: type(v) is list, lambda v: zip(count(), repeat(item), v))


def tuple_of(must: str, *items):
    """A list of one value of each of ``items``' shapes, in order."""
    items = [_of(item) for item in items]
    return kind(
        must, lambda v: type(v) is list and len(v) == len(items), lambda v: zip(count(), items, v)
    )


def dict_of(item, must: str = OBJECT.must, key=lambda k: True):
    """An object whose every key passes ``key`` and every value has shape ``item``."""
    item = _of(item)
    return kind(
        must,
        lambda v: type(v) is dict and all(map(key, v)),
        lambda v: zip(v, repeat(item), v.values()),
    )


def nullable(inner):
    """Null, or a value of shape ``inner``; a wrong value is told what ``inner`` must be."""
    inner = _of(inner)
    return _shape(f"null or {inner.must}", lambda value: value is None or inner(value))


def fast(shape, test):
    """``shape``, walked only for values ``test`` rejects, so ``test`` must reject all it does."""
    shape = _of(shape)
    return _shape(shape.must, lambda value: test(value) or shape(value))


# the most characters of a wrong value's JSON that a message quotes
_QUOTED = 40


def _quote(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= _QUOTED else text[:_QUOTED] + "..."


def check(value, shape):
    """``value``, if it has ``shape``; else a ValueError names the first place that has not.

    It reads ``field 'a.b[0]' must be <must>, not <json>`` or ``missing field 'a.b'``;
    a ``<json>`` over ``_QUOTED`` characters is cut there and ends in ``...``.
    """
    try:
        shape(value)
    except _Wrong as wrong:
        path = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in reversed(wrong.path))
        path = path.removeprefix(".")
        if wrong.must is None:
            raise ValueError(f"missing field '{path}'") from None
        at = f"field '{path}' " if path else ""
        raise ValueError(f"{at}must be {wrong.must}, not {_quote(wrong.value)}") from None
    return value
