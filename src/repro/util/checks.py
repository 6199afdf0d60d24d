"""Typed checks of caller-supplied numbers, raising field-named errors.

To Python, ``True`` is an ``int``, ``2.5`` passes a ``<= 0`` check meant
for a count, and a string where a number belongs escapes the comparison as
a bare ``TypeError``.  Public entry points read such arguments through
these checks instead: a wrong type is a ``ValueError`` that names the
field.  Integral values of any real type (``8.0``, ``np.int64(8)``) are
accepted as integers.  ``json.load`` reads ``NaN`` and ``Infinity``, and
both pass a ``<= 0`` check; rates and scales go through
:func:`positive_finite`.
"""

from __future__ import annotations

import math
import numbers

__all__ = ["got", "integer", "number", "positive_finite", "positive_integer"]


def got(value) -> str:
    """``value`` and its type, for an error message."""
    return f"got {value!r} ({type(value).__name__})"


def integer(value, name: str) -> int:
    """``value`` as an ``int``; bools and fractional numbers are rejected."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ValueError(f"{name} must be an integer, {got(value)}")


def positive_integer(value, name: str) -> int:
    """:func:`integer`, and at least 1."""
    value = integer(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def positive_finite(value, name: str):
    """``value`` unchanged if it is finite and above 0."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def number(value, name: str):
    """``value`` unchanged if it is a real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, {got(value)}")
    return value
