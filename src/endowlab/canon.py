"""Canonical ordering and serialization helpers.

Every user visible artifact (reports, certificates, instance files) is
emitted in a fixed canonical order so repeated runs are byte identical.
"""

from __future__ import annotations

import json
from typing import Iterable

from .errors import DataError


def set_key(s: Iterable[str]) -> tuple[str, ...]:
    """Canonical key for a set of point or condition identifiers."""
    return tuple(sorted(s))


def family_key(family: Iterable[Iterable[str]]) -> tuple[tuple[str, ...], ...]:
    """Canonical key for a family of sets: member keys in sorted order."""
    return tuple(sorted(set_key(m) for m in family))


def sorted_sets(family: Iterable[frozenset]) -> tuple[frozenset, ...]:
    """Family members in canonical order, duplicates removed."""
    seen = {}
    for m in family:
        seen[set_key(m)] = frozenset(m)
    return tuple(seen[k] for k in sorted(seen))


def set_list(s: Iterable[str]) -> list[str]:
    """JSON friendly form of a set: a sorted list."""
    return sorted(s)


# Both dumps skip the encoder's cycle check: every caller passes a fresh
# `to_jsonable` tree or parsed JSON, and neither can contain a cycle.


def canonical_json(obj) -> str:
    """Dump with sorted keys and no incidental whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_json_pretty(obj) -> str:
    """Dump with sorted keys, indented for human reading."""
    return json.dumps(obj, sort_keys=True, indent=2, check_circular=False)


_TYPE_NAMES = {str: "a string", int: "an integer"}


def check_shape(value, shape, where) -> None:
    """Raise DataError naming the first spot where parsed JSON leaves `shape`.

    A shape is `str` or `int` (booleans are not integers), a frozenset of
    allowed strings, a one-item list (a list of items of that shape), a
    tuple (a list of exactly that many items, shaped in order), a dict (an
    object with exactly those keys), or a function of (value, where).

    `where` is the name of the value, such as "scenario".  Inside the
    recursion it is a (parent, key or index) pair, spelled out as
    "scenario.names[0]" only when a message or a function shape needs it.
    """
    if isinstance(shape, type):
        if type(value) is not shape:
            raise DataError(f"{_spell(where)} must be {_TYPE_NAMES[shape]}")
    elif isinstance(shape, frozenset):
        if type(value) is not str or value not in shape:
            raise DataError(f"{_spell(where)} must be one of {sorted(shape)}")
    elif isinstance(shape, dict):
        if type(value) is not dict:
            raise DataError(f"{_spell(where)} must be an object")
        unknown = sorted(value.keys() - shape.keys())
        if unknown:
            raise DataError(f"{_spell(where)} has unknown key {unknown[0]!r}")
        for key, item in shape.items():
            if key not in value:
                raise DataError(f"{_spell(where)} needs key {key!r}")
            check_shape(value[key], item, (where, key))
    elif isinstance(shape, (list, tuple)):
        if type(value) is not list:
            raise DataError(f"{_spell(where)} must be a list")
        if isinstance(shape, tuple) and len(value) != len(shape):
            raise DataError(f"{_spell(where)} must have {len(shape)} entries")
        for i, item in enumerate(value):
            check_shape(item, shape[0] if isinstance(shape, list) else shape[i], (where, i))
    else:
        shape(value, _spell(where))


def _spell(where) -> str:
    """The dotted and indexed path of a `check_shape` location."""
    steps = []
    while type(where) is tuple:
        where, step = where
        steps.append(f".{step}" if type(step) is str else f"[{step}]")
    return where + "".join(reversed(steps))
