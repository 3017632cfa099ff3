"""Exception types shared across hlmkit, and the base of its record types.

Every error raised by the library derives from :class:`HlmkitError`, so the
CLI can map library failures to exit code 2 (validation) while leaving OS
errors (exit code 3) alone.
"""

from __future__ import annotations


class Record:
    """A dataclass-style record of the fields a subclass annotates, frozen unless ``frozen=False``:
    set by position or keyword (a class value is a default); ==, hash and repr use field order."""

    def __init_subclass__(cls, frozen: bool = True):
        cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        if not frozen:  # assignable, so unhashable
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):  # else each field is given once, in order
            values = dict(self._defaults, **dict(zip(self._fields, args)), **kwargs)  # dupes raise
            if len(args) > len(self._fields) or values.keys() != set(self._fields):
                raise TypeError(f"{type(self).__name__} takes {', '.join(self._fields)}, once each")
            args = map(values.get, self._fields)
        any(map(super().__setattr__, self._fields, args))  # each set returns None: any() runs all
        getattr(self, "__post_init__", lambda: None)()  # a subclass's checks, if it has any

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__name__}({', '.join(fields)})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class HlmkitError(Exception):
    """Base class for all hlmkit errors."""


class EmptyDocument(HlmkitError):
    """A document contained no usable text or tokens."""


class EmptyCorpus(HlmkitError):
    """A corpus was empty or contained no usable tokens."""


class DegenerateStats(HlmkitError):
    """Text statistics with a zero sentence or word count."""


class ValidationError(HlmkitError):
    """A value or file violated a documented invariant."""


class ParseError(HlmkitError):
    """A file could not be parsed. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MissingScore(HlmkitError):
    """No neural difficulty score was supplied for a document."""

    def __init__(self, doc_id: str):
        super().__init__(f"no neural score for document {doc_id!r}")
        self.doc_id = doc_id


class MissingSurprisal(HlmkitError):
    """No surprisal source (model or imported file) covers a document."""

    def __init__(self, doc_id: str):
        super().__init__(f"no surprisal values for document {doc_id!r}")
        self.doc_id = doc_id


class TooSmall(HlmkitError):
    """Too few documents to split into three difficulty levels."""


class IncompleteDataWarning(UserWarning):
    """Emitted when sparse input data forces cells or groups to be skipped."""
