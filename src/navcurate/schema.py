"""Exact JSON types read off dataclass fields.

A frozen dataclass is the one definition of a record or config schema: a
field's name is its JSON key, the field order is the key order, its
annotation is the JSON type it accepts (README, "File formats"), and a
field with a default may be left out. A tuple is a JSON array
(``tuple[tuple[float, float], ...]`` is a list of ``[x, y]`` pairs, as
waypoints are) and a nested dataclass is an object of its fields. A
column, ``Annotated[np.ndarray, dtype]``, is a numpy array of that dtype,
as the column tables hold (no JSON file holds one). A
record (a class marked with :func:`record`, read by :func:`decoder`)
ignores keys that are not fields and a config (read by :func:`load`)
rejects them, at every depth: a detection box in a detection record
ignores them, and the ``weights`` config in a ``loss`` input rejects them.

The annotation is the field's only type rule, for values read from files
and values built in code alike: every schema class's ``__post_init__`` is
:func:`check`, and :func:`decoder` and :func:`load` only pick an object's
keys and call the class. Values are checked, never coerced: an ``int`` is
never a bool or a float, a ``float`` is a finite int or float, numpy
scalars are rejected, and the one conversion is a list (or tuple) to a
plain tuple. A column takes an array (or nested lists) of a dtype that
casts to its own without changing a value: integers in an int64 column,
integers and floats in a float64 column, booleans in a bool column, and
an empty array of any dtype. Strings, objects, complex numbers, floats
or uint64 (whose values may pass int64) in an int64 column, and bools in
a number column do not fit. A column is stored as a read-only
C-contiguous array: a view of the given array where that already is
one, else a cast copy, and the given array is left writable. A value of
the wrong type raises SchemaError naming its class and key path. A
class's range rules (bounds, order, non-empty strings,
allowed names) are declared once, as data on the class: ``rules`` holds
(expression, message) pairs, each expression over the field names and true
for a valid object, each message an f-string template over them. Any other
name in a rule resolves in the module that defines the class, as a
function of that module resolves it, when the rule is tested: a rule may
name a module constant (``0 <= frame < _FRAME_LIMIT``) or helper.
:func:`check` tests the rules in order after the types, and a broken rule
raises ValidationError with its message.
:func:`columns` compiles from the same annotations and rules a pass that
reads records into columns without building them.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import itertools
import json
import math
import operator
import sys
import types
import typing
from array import array

import numpy as np

from .errors import SchemaError, ValidationError

__all__ = ["hints", "check", "record", "decoder", "load", "to_json", "columns"]

# The exact types json.loads gives for the values each scalar annotation accepts.
_JSON_TYPES = {str: frozenset((str,)), int: frozenset((int,)), float: frozenset((int, float)), bool: frozenset((bool,))}
_NAMES = {str: "string", int: "integer", float: "number", bool: "boolean"}


@functools.cache
def hints(cls) -> dict:
    """The resolved field annotations of a dataclass, by field name, columns' dtypes included."""
    return typing.get_type_hints(cls, include_extras=True)


class _Mismatch(SchemaError):
    """A value that does not fit its annotation; the message is formatted when it is read.

    ``path`` collects keys and indices, innermost first; ``subject`` names the
    outermost class reached so far. Unpickling (a pool worker's error) calls
    the class without arguments, hence the defaults.
    """

    def __init__(self, kind: str = "type", value=None, tp=None, key=None):
        super().__init__()
        self.kind, self.value, self.tp, self.path = kind, value, tp, [] if key is None else [key]
        self.subject = None

    def __str__(self) -> str:
        key = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in reversed(self.path)).lstrip(".")
        if self.kind != "type":
            return f"{self.subject} has " + (f"no {key!r}" if self.kind == "missing" else f"unknown key {key!r}")
        text = _show(self.value)
        text = text if len(text) <= 40 else text[:37] + "..."
        if not key:
            return f"{self.subject} is {text}, expected an object"
        return f"{self.subject} has {key!r} = {text}, expected {_describe(self.tp)}"


def _show(value, depth: int = 0) -> str:
    """A value as JSON text, but a part not exactly of a JSON type as its repr: ``np.float64(0.0)``, not ``0.0``.

    A part nested more than 40 deep shows as ``...``: it starts past the 40
    characters a message shows, and a deep value would exhaust the stack.
    """
    if depth > 40:
        return "..."
    if type(value) in (list, tuple):
        return "[" + ", ".join(_show(v, depth + 1) for v in value) + "]"
    if type(value) is dict:
        return "{" + ", ".join(f"{_show(k)}: {_show(v, depth + 1)}" for k, v in value.items()) + "}"
    if value is None or type(value) in (str, int, float, bool):
        return json.dumps(value)
    return repr(value)


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
            isinstance(v, (list, tuple))
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
        if not isinstance(v, (list, tuple)):
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


def _column(tp, dtype):
    """Annotated[np.ndarray, dtype]: the values as a read-only C-contiguous dtype array, cast only if none changes."""

    def convert(v):
        try:
            a = np.asarray(v)
        except ValueError:  # a ragged nesting of lists
            raise _Mismatch("type", v, tp) from None
        if not a.size:
            a = np.empty(a.shape, dtype)
        # A "safe" cast changes no value (uint64 and floats to int64 are unsafe), but takes bools as numbers.
        elif not np.can_cast(a.dtype, dtype) or (a.dtype.kind == "b") != (dtype.kind == "b"):
            raise _Mismatch("type", v, tp)
        a = np.ascontiguousarray(a, dtype).view()
        a.flags.writeable = False
        return a

    return convert


_RECORDS: set = set()


def record(cls):
    """Class decorator: cls is a record, whose objects ignore keys that are not fields, nested or not."""
    _RECORDS.add(cls)
    return cls


def _nested(cls):
    """A dataclass field: an instance as it is (its constructor checked it), an object through the decoder.

    The object may hold keys that are not fields if cls is a record, not
    if it is a config. The decoder is looked up per call because a schema
    may nest itself.
    """
    return lambda v: v if isinstance(v, cls) else _decoder(cls, strict=cls not in _RECORDS)(v)


@functools.cache
def _converter(tp):
    """The function that checks one value against annotation tp and returns the field value."""
    args = typing.get_args(tp)
    if tp in _JSON_TYPES:
        return _scalar(tp)
    if typing.get_origin(tp) is typing.Annotated:
        return _column(tp, np.dtype(tp.__metadata__[0]))
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
        return _nested(tp)
    raise TypeError(f"no JSON type rule for {tp!r}")


@functools.cache
def _checkers(cls) -> tuple:
    """The (field name, converter) pairs of cls, and the function giving its first broken rule's message (or None)."""
    checkers = tuple((f.name, _converter(hints(cls)[f.name])) for f in dataclasses.fields(cls))
    if not getattr(cls, "rules", ()):
        return checkers, None
    names = [name for name, _ in checkers]
    lines = ["def fault(obj):", f"    {', '.join(names)}, = {', '.join(f'obj.{name}' for name in names)},"]
    lines += [f"    if not ({expr}): return f{message!r}" for expr, message in cls.rules]
    namespace = {}
    # The globals are the module's live namespace, not a copy: a rule may name a constant defined after cls.
    exec("\n".join(lines), vars(sys.modules[cls.__module__]), namespace)
    return checkers, namespace["fault"]


def check(obj) -> None:
    """Check an instance's fields against their annotations, then its rules: every schema class's ``__post_init__``.

    A list or tuple in an array field is stored as a plain tuple, the one
    conversion. A value of the wrong type raises SchemaError naming the
    class and the field, as a file value of that type does. A broken rule
    raises ValidationError with the rule's message.
    """
    checkers, fault = _checkers(type(obj))
    for name, convert in checkers:
        value = getattr(obj, name)
        try:
            checked = convert(value)
        except _Mismatch as exc:
            exc.path.append(name)
            exc.subject = type(obj).__name__
            raise
        if checked is not value:
            object.__setattr__(obj, name, checked)
    if fault is not None and (message := fault(obj)) is not None:
        raise ValidationError(message)


@functools.cache
def _decoder(cls, strict: bool):
    """The function that builds cls from a JSON object or raises _Mismatch; strict rejects keys that are not fields.

    It only picks the values: the constructor checks their types. An
    absent key takes the field's plain default; a default_factory field
    counts as required.
    """
    fields = [(f.name, f.default) for f in dataclasses.fields(cls)]
    names = frozenset(name for name, _ in fields)

    def decode(obj):
        if type(obj) is not dict:
            raise _Mismatch("type", obj, cls)
        if strict and not names.issuperset(obj):
            raise _Mismatch("unknown", key=min(obj.keys() - names))
        args = []
        for name, default in fields:
            if name in obj:
                args.append(obj[name])
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
    return functools.partial(_decode, _decoder(cls, strict=False), subject or cls.__name__)


def load(cls, data):
    """A config cls from parsed JSON, or SchemaError for a non-object, an unknown key or a mistyped value."""
    return _decode(_decoder(cls, strict=True), cls.__name__, data)


def _decode(decode, subject: str, obj):
    try:
        return decode(obj)
    except _Mismatch as exc:
        exc.subject = subject
        raise


def _describe(tp) -> str:
    args = typing.get_args(tp)
    if tp in _NAMES:
        return _NAMES[tp]
    if typing.get_origin(tp) is typing.Annotated:
        return f"{np.dtype(tp.__metadata__[0])} column"
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


# ---------------------------------------------------------------------------
# The column pass compiled from a record class
# ---------------------------------------------------------------------------

# The column each scalar type is appended to.
_COLUMNS = {str: "[]", int: "array('q')", float: "array('d')", bool: "array('b')"}
# The test that a parsed JSON value v does not have each scalar type: a float is an int or float in (-1e999, 1e999).
_WRONG = {str: "type({v}) is not str", int: "type({v}) is not int", bool: "type({v}) is not bool",
          float: "type({v}) not in _NUMBERS or not -1e999 < {v} < 1e999"}


def columns(cls, coded=()):
    """A fresh pass over parsed JSON records of the record class cls: ``(take, columns)``.

    take(obj) appends one record's values to the columns, a dict of lists
    and arrays by key, or raises KeyError, TypeError, ValueError or
    OverflowError where ``decoder(cls)`` would reject obj; a rejected record
    may leave the columns partly appended. The keys are the field names,
    dotted for the fields of a record in a list:

    - str fields are lists, int fields ``array("q")``, float fields
      ``array("d")`` and bool fields ``array("b")``; ``X | None`` holds X's
      zero for null, and ``<key>.null`` marks the nulls;
    - a scalar field whose key is in ``coded`` holds the codes of its
      values instead, and ``<key>.names`` maps each distinct value to its
      code;
    - a fixed tuple of numbers or booleans is one flat column;
    - ``tuple[X, ...]`` ends each record's items at ``<key>.ends`` (an
      ``array("q")`` of item counts so far), with scalar or tuple items in
      ``<key>`` and record items in ``<key>.<field>``.

    An int past int64 fails the pass (OverflowError): an int field read
    into columns declares a rule bounding it, so the decoder rejects it
    too. Any other annotation, or a nested record with rules from another
    module, raises TypeError when the pass is compiled.
    """
    return _column_pass(cls, tuple(coded))()


@functools.cache
def _column_pass(cls, coded: tuple):
    """The function that makes cls's columns and take, its source written once, as ``dataclasses`` writes ``__init__``.

    Each value is appended once its type is tested; a record's rules follow
    its fields. The source runs in cls's module, so a rule's other names
    resolve there, as they do in :func:`check`; a nested record with rules
    must come from the same module. Column i is ``_c{i}``, with its append
    ``_a{i}`` and extend ``_e{i}``; they and the names in ``env`` are locals
    of ``make``.
    """
    lines, made, env = [], {}, {"_NUMBERS": _JSON_TYPES[float], "array": array}
    names = map("_v{}".format, itertools.count(1))

    def column(key: str, make: str) -> int:
        if key in made:
            raise TypeError(f"two columns named {key!r}")
        made[key] = make
        return len(made) - 1

    def record(rec, obj: str, prefix: str, pad: int) -> str:
        """Emit the pass over the record rec in obj; return an expression counting the records passed."""
        if getattr(rec, "rules", ()) and rec.__module__ != cls.__module__:
            raise TypeError(f"the rules of {rec.__name__} resolve in another module than {cls.__name__}'s")
        fields, indent = dataclasses.fields(rec), "    " * pad
        local = {f.name: next(names) for f in fields}
        lines.append(f"{indent}if type({obj}) is not dict: raise TypeError")
        for f in fields:
            read = f"[{f.name!r}]"
            if f.default is not dataclasses.MISSING:
                env[local[f.name] + "_d"], read = f.default, f".get({f.name!r}, {local[f.name]}_d)"
            lines.append(f"{indent}{local[f.name]} = {obj}{read}")
        counts = [field(hints(rec)[f.name], local[f.name], prefix + f.name, pad) for f in fields]
        for expr, _ in getattr(rec, "rules", ()):  # inlined with each field name read as its local
            tree = ast.parse(expr, mode="eval")
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    node.id = local.get(node.id, node.id)
            lines.append(f"{indent}if not ({ast.unparse(tree)}): raise ValueError")
        return counts[0]

    def field(tp, v: str, key: str, pad: int) -> str:
        """Emit the type tests and appends of the value v of annotation tp; return an expression counting them."""
        indent, args, origin = "    " * pad, typing.get_args(tp), typing.get_origin(tp)
        if tp in _COLUMNS:
            lines.append(f"{indent}if {_WRONG[tp].format(v=v)}: raise TypeError")
            i = column(key, "array('q')" if key in coded else _COLUMNS[tp])
            if key in coded:
                j = column(key + ".names", "{}")
                v = f"_c{j}.setdefault({v}, len(_c{j}))"
            lines.append(f"{indent}_a{i}({v})")
            return f"len(_c{i})"
        if origin in (typing.Union, types.UnionType) and args[1:] == (type(None),) and args[0] in _COLUMNS:
            i, j = column(key, _COLUMNS[args[0]]), column(key + ".null", "array('b')")
            lines.append(f"{indent}if {v} is not None and ({_WRONG[args[0]].format(v=v)}): raise TypeError")
            lines.extend([f"{indent}_a{i}({args[0]()!r} if {v} is None else {v})", f"{indent}_a{j}({v} is None)"])
            return f"len(_c{j})"
        # A JSON object or string unpacks to its keys or characters, which fail a number's or a boolean's test.
        if origin is tuple and Ellipsis not in args and len(set(args)) == 1 and args[0] in (int, float, bool):
            i, items = column(key, _COLUMNS[args[0]]), [next(names) for _ in args]
            wrong = " or ".join(_WRONG[args[0]].format(v=item) for item in items)
            lines.extend([f"{indent}{', '.join(items)}, = {v}", f"{indent}if {wrong}: raise TypeError"])
            lines.append(f"{indent}_e{i}({v})")
            return f"len(_c{i}) // {len(items)}"
        if origin is tuple and args[1:] == (Ellipsis,):
            i, item = column(key + ".ends", "array('q')"), next(names)
            lines.extend([f"{indent}if type({v}) is not list: raise TypeError", f"{indent}for {item} in {v}:"])
            if args[0] in _RECORDS:
                count = record(args[0], item, key + ".", pad + 1)
            else:
                count = field(args[0], item, key, pad + 1)
            lines.append(f"{indent}_a{i}({count})")
            return f"len(_c{i})"
        raise TypeError(f"no column rule for {tp!r}")

    record(cls, "_v0", "", 2)
    head = [f"def make({', '.join(f'{name}={name}' for name in env)}):"]
    for i, make in enumerate(made.values()):
        head.append(f"    _c{i} = {make}" + ("" if make == "{}" else f"; _a{i}, _e{i} = _c{i}.append, _c{i}.extend"))
    tail = ["    return take, {" + ", ".join(f"{key!r}: _c{i}" for i, key in enumerate(made)) + "}"]
    exec("\n".join([*head, "    def take(_v0):", *lines, *tail]), vars(sys.modules[cls.__module__]), env)
    return env["make"]
