"""Shapes of the JSON values the CLI reads, and the one check that holds a value to one.

A shape says what a value ``must`` be. Where a shape is taken, a dict stands for
an object with those fields (a name ending in ``?`` may be absent; others are let
be) and a one-item list for a list of that item. Readers declare their shapes
once, at module level, ``check`` what they decode and then trust the types. The
first ``check`` of a shape compiles its declaration to one Python function, as
fastjsonschema does for JSON Schema, that returns True for a value that fits and
else the first place that does not, for the message. Records with invariants are
NamedTuples made ``checked``, so that each one built holds to its own ``_check``.
"""

from __future__ import annotations

import functools
import json
import sys

_CALLED = {}  # the callables that compiled shapes call, by the name each is called by


class Shape:
    """What a value ``must`` be: ``test``, a Python expression in ``{v}``, holds its top
    level, and ``parts(v, at)`` writes the lines that hold its parts."""

    def __init__(self, must, test: str, parts=lambda v, at: []):
        self.must, self.test, self.parts, self.compiled = must, test, parts, None

    def code(self, v: str, at: list) -> list:
        """Lines that hold the value in the local ``v``, found at keys ``at``, to this shape;
        a wrong value returns its keys, what it must be (None: it is missing) and itself."""
        return [f"if not ({self.test.format(v=v)}): return [{', '.join(at)}], {self.must!r}, {v}",
                *self.parts(v, at)]


def _name(function) -> str:
    _CALLED[f"_{id(function)}"] = function
    return f"_{id(function)}"


def kind(must: str, test):
    """The shape of the values ``test`` accepts: a Python expression in ``{v}``, or a callable."""
    return Shape(must, test if type(test) is str else f"{_name(test)}({{v}})")


ANY = kind("any value", "True")
STRING = kind("a string", "type({v}) is str")
TEXT = kind("a non-blank string", "type({v}) is str and {v}.strip() != ''")
INT = kind("an integer", "type({v}) is int")  # a bool is not one
_MAX = sys.float_info.max  # an int beyond a float's range fails float arithmetic
NUMBER = kind("a finite number", f"type({{v}}) in (int, float) and -{_MAX!r} <= {{v}} <= {_MAX!r}")
BOOL = kind("true or false", "type({v}) is bool")
LIST = kind("a list", "type({v}) is list")
OBJECT = kind("a JSON object", "type({v}) is dict")


def _of(spec):
    if type(spec) is dict:
        return obj(spec)
    return list_of(*spec) if type(spec) is list else spec


def _block(head: str, lines: list) -> list:
    """``lines`` indented under ``head``, or no lines if there are none."""
    return lines and [head, *("    " + line for line in lines)]


def obj(fields: dict):
    """An object with each of ``fields``, of its shape."""
    fields = [(name.rstrip("?"), _of(s), not name.endswith("?")) for name, s in fields.items()]

    def parts(v, at):
        lines = []
        for i, (name, shape, needed) in enumerate(fields):
            x, key = f"{v}_{i}", [*at, repr(name)]
            lines += _block(f"if {name!r} in {v}:", [f"{x} = {v}[{name!r}]", *shape.code(x, key)])
            lines += [f"else: return [{', '.join(key)}], None, None"] if needed else []
        return lines
    return Shape(OBJECT.must, OBJECT.test, parts)


def _each(must: str, test: str, item, pairs: str):
    """A container whose every item has shape ``item``; ``pairs`` in ``{v}`` gives (key, item)s."""
    item = _of(item)
    return Shape(must, test, lambda v, at: _block(f"for {v}_k, {v}_i in {pairs.format(v=v)}:",
                                                  item.code(f"{v}_i", [*at, f"{v}_k"])))


def list_of(item):
    """A list of items of shape ``item``."""
    return _each(LIST.must, LIST.test, item, "enumerate({v})")


def dict_of(item, must: str = OBJECT.must, key=None):
    """An object whose every key passes ``key`` and every value has shape ``item``."""
    keys = "" if key is None else f" and all(map({_name(key)}, {{v}}))"
    return _each(must, OBJECT.test + keys, item, "{v}.items()")


def tuple_of(must: str, *items):
    """A list of one value of each of ``items``' shapes, in order."""
    items = [_of(item) for item in items]

    def parts(v, at):
        lines = []
        for i, item in enumerate(items):
            lines += [f"{v}_{i} = {v}[{i}]", *item.code(f"{v}_{i}", [*at, str(i)])]
        return lines
    return Shape(must, f"type({{v}}) is list and len({{v}}) == {len(items)}", parts)


def nullable(inner):
    """Null, or a value of shape ``inner``; a wrong value is told what ``inner`` must be."""
    inner = _of(inner)
    return Shape(inner.must, f"{{v}} is None or ({inner.test})",
                 lambda v, at: _block(f"if {v} is not None:", inner.parts(v, at)))


def _compile(shape: Shape):
    """``shape`` as one function, written from its declaration alone: no value reaches it."""
    names = dict(_CALLED)
    lines = [*_block("def fits(value):", shape.code("value", [])), "    return True"]
    exec(compile("\n".join(lines), f"<shape {shape.must}>", "exec"), names)
    return names["fits"]


_QUOTED = 40  # the most characters of a wrong value's JSON that a message quotes


def error(path: str, must: str | None, value) -> ValueError:
    """``field 'a.b[0]' must be <must>, not <json>``, or ``missing field 'a.b'`` for a
    ``must`` of None; a ``<json>`` over ``_QUOTED`` characters is cut there with ``...``."""
    if must is None:
        return ValueError(f"missing field '{path}'")
    text = json.dumps(value)
    text = text if len(text) <= _QUOTED else text[:_QUOTED] + "..."
    return ValueError((f"field '{path}' " if path else "") + f"must be {must}, not {text}")


def check(value, shape: Shape):
    """``value``, if it has ``shape``; else the ``error`` of the first place that has not."""
    if shape.compiled is None:
        shape.compiled = _compile(shape)
    if (wrong := shape.compiled(value)) is True:
        return value
    keys, must, at = wrong
    path = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in keys)
    raise error(path.removeprefix("."), must, at)


def checked(record):
    """Make the NamedTuple class ``record`` run its ``_check`` on each record it builds.

    ``typing.NamedTuple`` takes no ``__new__`` in a class body, so the check wraps
    the generated one here. ``_make`` and ``_replace`` skip it: nothing builds
    such a record through them.
    """
    new = record.__new__

    @functools.wraps(new)
    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    record.__new__ = staticmethod(__new__)
    return record
