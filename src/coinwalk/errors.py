"""Error type and the input rules shared across the package, each stated once.

Every failure mode that callers may want to branch on carries a stable
string code (e.g. ``"dense-limit-exceeded"``) in addition to a human
readable message.  A malformed input raises ``ValueError``: a JSON value of
the wrong type (:func:`checked`; a number is a finite ``int`` or ``float``,
never a ``bool`` or ``str``), lists that hold anything but such numbers
(:func:`float_array`), an ``n`` under 1 (:func:`check_n`), or JSON text
that does not parse or nests too deeply for the decoder (:func:`read_json`).
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["ToolkitError", "check_n", "checked", "float_array", "read_json"]


class ToolkitError(Exception):
    """Exception with a machine-readable ``code`` and a human-readable ``message``."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}" if message else code)


def checked(value, kind: type, what: str):
    """``value`` if it is a JSON ``kind`` (an integer passes as a float, a boolean
    as no number, a float only if finite); ``ValueError`` otherwise."""
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):  # OverflowError for an integer past the float range
                return float(value)
        except OverflowError:
            pass
    elif isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be a JSON {kind.__name__}, got {value!r:.40}")


def float_array(data, what: str) -> np.ndarray:
    """Nested JSON lists of numbers, each as :func:`checked` reads one, as a float array."""
    try:
        raw = np.array(data, dtype=object)
        if {type(v) for v in raw.flat} <= {int, float} and np.isfinite(values := raw.astype(float)).all():
            return values
    except (ValueError, OverflowError):  # ragged lists; an integer past the float range
        pass
    raise ValueError(f"{what} must be nested lists of finite numbers")


def read_json(text: str):
    """``json.loads(text)``; a document nested past the decoder's recursion
    limit is a ``ValueError`` too, like any other text that does not parse."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply to read: {exc}") from None


def check_n(n: int) -> int:
    """``n`` if it is at least 1, the fewest position qubits; ``ValueError`` otherwise."""
    if n < 1:
        raise ValueError(f"n={n} is under 1")
    return n
