"""Error type and the JSON value check shared across the package.

Every failure mode that callers may want to branch on carries a stable
string code (e.g. ``"dense-limit-exceeded"``) in addition to a human
readable message.  A malformed input document raises ``ValueError``.
"""

from __future__ import annotations

__all__ = ["ToolkitError", "checked"]


class ToolkitError(Exception):
    """Exception with a machine-readable ``code`` and a human-readable ``message``."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}" if message else code)


def checked(value, kind: type, what: str):
    """``value`` if it is a JSON ``kind`` (an integer passes as a float, a boolean
    as no number); ``ValueError`` otherwise."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    elif isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be a JSON {kind.__name__}, got {value!r:.40}")
