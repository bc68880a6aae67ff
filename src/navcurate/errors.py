"""Exception types shared across the pipeline.

The CLI catches one base class per error kind: ParseError -> parse,
exit 2; ValidationError (SchemaError, LengthMismatch, ShapeMismatch,
InvalidSpec) -> validation, exit 2; EmptyResult (EmptyInput) -> empty,
exit 3; a plain OSError -> io, exit 4. An outcome the caller expects and
counts (a clip shorter than one window, a goal with no feasible start)
is a return value, not an exception.
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


class LengthMismatch(ValidationError):
    """Two sequences that must have equal length do not."""


class ShapeMismatch(ValidationError):
    """Two arrays that must have identical shape do not."""


class EmptyInput(EmptyResult):
    """An aggregate operation received zero records."""


class InvalidSpec(ValidationError):
    """A synthetic-data spec is internally inconsistent."""
