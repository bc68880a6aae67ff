"""Exception types shared across the pipeline.

There is one exception class per error kind, and the CLI catches each:
ParseError -> parse, exit 2; ValidationError -> validation, exit 2;
EmptyResult -> empty, exit 3; a plain OSError -> io, exit 4. The one
subclass, SchemaError (a ValidationError), exists because a handler tells
it apart: a record line whose value has the wrong JSON type is a parse
error, a record that breaks a rule a validation error. An outcome the
caller expects and counts (a clip shorter than one window, a goal with no
feasible start) is a return value, not an exception.
"""

from __future__ import annotations


class NavcurateError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(NavcurateError):
    """A file line could not be parsed into a record."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
        if line is not None:
            where += f"{line}:"
        super().__init__(f"{where} {message}" if where else message)


class ValidationError(NavcurateError):
    """A value violates a documented invariant."""


class SchemaError(ValidationError):
    """A JSON value does not have the type its schema field declares."""


class EmptyResult(NavcurateError):
    """An operation produced nothing (e.g. trajectory shorter than one clip)."""
