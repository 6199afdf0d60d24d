"""Typed reads of JSON values: the workload loaders' boundary checks.

To Python, JSON ``true`` is an ``int``, ``2.5`` passes a ``<= 0`` check
meant for a count, and a list of pairs is a fine argument to ``dict()``.
So a dataclass fed raw JSON accepts ``{"max_batch": true}`` and
``{"num_queries": 2.5}``, and a string where a number belongs escapes
``__post_init__`` as a bare ``TypeError``.  The ``from_dict`` loaders and
the backend plugins read every value through these checks instead: a
wrong type is a ``ValueError`` that names the field.  Integral floats
(``8.0``) are accepted as integers; the dataclass constructors themselves
are unchanged.  The scalar checks live in :mod:`repro.util.checks`, which
the serving entry points share.
"""

from __future__ import annotations

import typing

from repro.util.checks import got, integer, number

__all__ = ["json_object", "json_list", "json_fields"]


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, {got(value)}")
    return value


def json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, {got(value)}")
    return value


def json_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON list, {got(value)}")
    return value


_CHECKS = {int: integer, float: number, str: _string, dict: json_object}


def json_fields(cls, data, name: str) -> dict:
    """A copy of JSON object ``data`` whose scalar fields fit dataclass ``cls``.

    Every field ``cls`` annotates as ``int``, ``float``, ``str`` or
    ``dict`` — optionally ``| None``, which also admits ``null`` — is
    checked and (integers) normalized.  Nested specs are left to the
    caller's loader, and unknown fields to the constructor, whose
    ``TypeError`` names them.
    """
    out = dict(json_object(data, name))
    for field, hint in typing.get_type_hints(cls).items():
        if field not in out:
            continue
        args = typing.get_args(hint)
        if type(None) in args:
            if out[field] is None:
                continue
            hint = next(arg for arg in args if arg is not type(None))
        check = _CHECKS.get(hint)
        if check is not None:
            out[field] = check(out[field], f"{name} field {field!r}")
    return out
