"""Exception types shared across the package."""

from __future__ import annotations


class EffstructError(Exception):
    """Base class for all errors raised by this package."""


class InputError(EffstructError):
    """Malformed input: bad value, unreadable file, or schema violation."""


class HorizonError(InputError):
    """A verification was requested below its certification horizon.

    Carries the number of stages that would have been needed, so callers
    can rerun with a sufficient budget instead of guessing.
    """

    def __init__(self, message: str, required_stages: int):
        super().__init__(message)
        self.required_stages = required_stages


class ConstructionBugError(EffstructError):
    """An internal invariant of a stage construction failed.

    These conditions are asserted on every stage and are unreachable
    unless the construction code itself is wrong.
    """
