"""Canonical ordering and serialization helpers.

Every user visible artifact (reports, certificates, instance files) is
emitted in a fixed canonical order so repeated runs are byte identical.
Reports and small sections go through `canonical_json`.  A certificate's
bulk (its names and witness triples) is written straight to the same text
by its classes' `to_text` methods, with a `TextMemo` that encodes each
distinct identifier and set once; those classes parse that text when a
dict is wanted, so each of their layouts is spelled in one place.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path
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


# Both dumps skip the encoder's cycle check: every caller passes a fresh
# `to_jsonable` tree or parsed JSON, and neither can contain a cycle.


def canonical_json(obj) -> str:
    """Dump with sorted keys and no incidental whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_json_pretty(obj) -> str:
    """Dump with sorted keys, indented for human reading."""
    return json.dumps(obj, sort_keys=True, indent=2, check_circular=False)


def parse_json(text: str, path: str | Path):
    """Parse the text read from `path`; bad JSON is a DataError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc


# -- writing canonical text directly -------------------------------------------
#
# The pieces below produce exactly the bytes `canonical_json` would write for
# the same values: string literals come from the encoder's own escaping
# function (`ensure_ascii`), object keys are sorted, and no whitespace is
# added.

BOOL_TEXT = {False: "false", True: "true"}


class _Memo(dict):
    """A dict that fills a missing entry by calling `make` on its key."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class TextMemo:
    """Canonical text of identifiers and identifier sets, each made once.

    `quoted[s]` is the JSON string literal of s; `sets[u]` is the JSON list
    of u's members in sorted order, for a frozenset or a tuple.  One memo
    serves one certificate, whose conditions, points and sets recur across
    its sections.
    """

    __slots__ = ("quoted", "sets")

    def __init__(self):
        self.quoted = _Memo(encode_basestring_ascii)
        self.sets = _Memo(self._list)

    def _list(self, members) -> str:
        quoted = self.quoted
        return "[" + ",".join([quoted[x] for x in sorted(members)]) + "]"


def array_text(items: Iterable[str]) -> str:
    """A JSON array of item texts, each already canonical."""
    return "[" + ",".join(items) + "]"


def object_text(fields: dict[str, str]) -> str:
    """A JSON object of field texts, each already canonical, with its keys
    sorted.  Keys are plain ASCII names that need no escaping."""
    return "{" + ",".join([f'"{key}":{fields[key]}' for key in sorted(fields)]) + "}"


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
