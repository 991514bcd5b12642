"""Exception types raised across the toolkit."""

from __future__ import annotations


class EpixError(Exception):
    """Base class for all toolkit errors; ``exit_code`` is the CLI's exit status for it."""

    exit_code = 2


class EmptyInput(EpixError):
    """Raised when a parser receives empty or whitespace-only input."""


class SchemaError(EpixError):
    """A corpus, gold, or resource file violates its expected schema.

    Carries the offending line number when the problem is line-local.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(EpixError):
    """Invalid run, extractor, or ensemble configuration."""


class BudgetExhausted(EpixError):
    """Prompt scaffolding alone exceeds the model context window."""


class TransportError(EpixError):
    """A model request failed after exhausting retries."""

    exit_code = 3


class CacheMiss(TransportError):
    """Replay mode found no cached response for a request digest."""


class AuthError(TransportError):
    """Credential missing or rejected by the model endpoint."""


class NoIsland(EpixError):
    """No balanced, parseable object found in a model response."""


class ExtractionFailed(EpixError):
    """A batch extraction aborted on a document; completed records are kept.

    ``partial_records`` holds every record finished before the failure so
    callers can persist progress before surfacing the error.
    """

    exit_code = 3

    def __init__(self, document_id: str, cause: Exception, partial_records=()):
        super().__init__(f"extraction failed on document {document_id!r}: {cause}")
        self.document_id = document_id
        self.cause = cause
        self.partial_records = list(partial_records)


class AlignmentError(EpixError):
    """Gold annotations and predictions cannot be paired one-to-one by document id."""

    exit_code = 4


class EmptyReport(EpixError):
    """Attempted to render a report containing no extractors."""

    exit_code = 4
