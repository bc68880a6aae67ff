"""Exact JSON types read off dataclass fields.

A frozen dataclass is the one definition of a record or config schema: a
field's name is its JSON key, the field order is the key order, its
annotation is the JSON type it accepts (README, "File formats"), and a
field with a default may be left out. Values are checked, never coerced.
A tuple is a JSON array (``tuple[tuple[float, float], ...]`` is a list of
``[x, y]`` pairs, as waypoints are) and a nested dataclass is an object of
its fields. A value of the wrong JSON type raises SchemaError naming its key
path; the dataclass constructor's own checks (ranges, non-empty strings)
raise ValidationError.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import types
import typing

from .errors import SchemaError

__all__ = ["hints", "decoder", "load", "to_json"]

# The exact types json.loads gives for the values each scalar annotation accepts.
_JSON_TYPES = {str: frozenset((str,)), int: frozenset((int,)), float: frozenset((int, float)), bool: frozenset((bool,))}
_NAMES = {str: "string", int: "integer", float: "number", bool: "boolean"}


@functools.cache
def hints(cls) -> dict:
    """The resolved field annotations of a dataclass, by field name."""
    return typing.get_type_hints(cls)


class _Mismatch(Exception):
    """A JSON value that does not fit its annotation; ``path`` collects keys and indices, innermost first."""

    def __init__(self, kind: str, value=None, tp=None, key=None):
        self.kind, self.value, self.tp, self.path = kind, value, tp, [] if key is None else [key]


def _finite(values) -> bool:
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond the float range
        return False


def _scalar(tp):
    accepted = _JSON_TYPES[tp]

    def convert(v):
        if type(v) in accepted and (tp is not float or _finite((v,))):
            return v
        raise _Mismatch("type", v, tp)

    return convert


def _scalars(tp, item, n=None):
    """tuple[item, ...], or of exactly n items, for a scalar item type."""
    accepted = _JSON_TYPES[item]

    def convert(v):
        if (
            type(v) is list
            and (n is None or len(v) == n)
            and accepted.issuperset(map(type, v))
            and (item is not float or _finite(v))
        ):
            return tuple(v)
        raise _Mismatch("type", v, tp)

    return convert


def _items(tp, convert_item):
    """tuple[T, ...] through convert_item; a bad item's index joins the key path."""

    def convert(v):
        if type(v) is not list:
            raise _Mismatch("type", v, tp)
        out = []
        try:
            for x in v:
                out.append(convert_item(x))
        except _Mismatch as exc:
            exc.path.append(len(out))
            raise
        return tuple(out)

    return convert


@functools.cache
def _converter(tp):
    """The function that checks one JSON value against annotation tp and returns the field value."""
    args = typing.get_args(tp)
    if tp in _JSON_TYPES:
        return _scalar(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # X | None
        convert = _converter(next(a for a in args if a is not type(None)))
        return lambda v: None if v is None else convert(v)
    if typing.get_origin(tp) is tuple:
        if args[-1] is not Ellipsis:
            return _scalars(tp, args[0], len(args))
        if args[0] in _JSON_TYPES:
            return _scalars(tp, args[0])
        return _items(tp, _converter(args[0]))
    if dataclasses.is_dataclass(tp):
        return lambda v: _decoder(tp, strict=True)(v)  # looked up per call: a schema may nest itself
    raise TypeError(f"no JSON type rule for {tp!r}")


@functools.cache
def _decoder(cls, strict: bool):
    """The function that builds cls from a JSON object or raises _Mismatch; strict rejects keys that are not fields.

    An absent key takes the field's plain default; a default_factory field counts as required.
    """
    fields = [(f.name, _converter(hints(cls)[f.name]), f.default) for f in dataclasses.fields(cls)]
    names = frozenset(name for name, _, _ in fields)

    def decode(obj):
        if type(obj) is not dict:
            raise _Mismatch("type", obj, cls)
        if strict and not names.issuperset(obj):
            raise _Mismatch("unknown", key=min(obj.keys() - names))
        args = []
        for name, convert, default in fields:
            if name in obj:
                try:
                    args.append(convert(obj[name]))
                except _Mismatch as exc:
                    exc.path.append(name)
                    raise
            elif default is dataclasses.MISSING:
                raise _Mismatch("missing", key=name)
            else:
                args.append(default)
        return cls(*args)

    return decode


def decoder(cls, subject: str | None = None):
    """The function that builds a record cls from a parsed JSON object; keys that are not fields are ignored.

    A mistyped value raises SchemaError, its message starting with subject
    (default: the class name).
    """
    decode = _decoder(cls, strict=False)

    def decode_record(obj):
        try:
            return decode(obj)
        except _Mismatch as exc:
            raise SchemaError(f"{subject or cls.__name__} {_problem(exc)}") from None

    return decode_record


def load(cls, data):
    """A config cls from parsed JSON, or SchemaError for a non-object, an unknown key or a mistyped value."""
    try:
        return _decoder(cls, strict=True)(data)
    except _Mismatch as exc:
        raise SchemaError(f"{cls.__name__} {_problem(exc)}") from None


def _problem(exc: _Mismatch) -> str:
    key = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in reversed(exc.path)).lstrip(".")
    if exc.kind != "type":
        return f"has no {key!r}" if exc.kind == "missing" else f"has unknown key {key!r}"
    text = json.dumps(exc.value, default=repr)
    text = text if len(text) <= 40 else text[:37] + "..."
    return f"has {key!r} = {text}, expected {_describe(exc.tp)}" if key else f"is {text}, expected an object"


def _describe(tp) -> str:
    args = typing.get_args(tp)
    if tp in _NAMES:
        return _NAMES[tp]
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return " or ".join("null" if a is type(None) else _describe(a) for a in args)
    if typing.get_origin(tp) is tuple:
        return "[" + ", ".join("..." if a is Ellipsis else _describe(a) for a in args) + "]"
    return f"{tp.__name__} object"


def to_json(value):
    """The JSON form of a dataclass value, as json's ``default`` hook: an object of its fields in order."""
    names, get = _getter(type(value))
    return dict(zip(names, get(value)))


@functools.cache
def _getter(cls):
    names = tuple(f.name for f in dataclasses.fields(cls))
    return names, operator.attrgetter(*names)
