"""Error types shared across the package.

Each class carries the process exit code the command line tool maps it to.
"""

from __future__ import annotations


class EndowlabError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class UsageError(EndowlabError):
    """Bad command line usage."""

    exit_code = 64


class DataError(EndowlabError):
    """Malformed input data: unknown conditions, shape violations, bad
    literals, arguments that fail a documented precondition."""

    exit_code = 65


class ResourceError(EndowlabError):
    """A configured resource bound was exceeded.

    `partial` optionally carries whatever partial report was computed before
    the budget ran out.
    """

    exit_code = 70

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class ScenarioError(EndowlabError):
    """A preservation scenario fails the theorem hypotheses (for example the
    selection solver has no admissible move)."""

    exit_code = 2

