"""Exception types shared across hlmkit.

Every error raised by the library derives from :class:`HlmkitError`, so the
CLI can map library failures to exit code 2 (validation) while leaving OS
errors (exit code 3) alone.
"""

from __future__ import annotations


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
