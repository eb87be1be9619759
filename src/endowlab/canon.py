"""Canonical ordering and serialization helpers.

Every user visible artifact (reports, certificates, instance files) is
emitted in a fixed canonical order so repeated runs are byte identical.
Reports and plain dicts go through `canonical_json`.  A certificate is
written straight to the same text: each of its records has one writer,
`write(out, memo)`, which appends its fragments to one list with its keys
spelled as literals in sorted order, and the certificate joins that list
once.  The `TextMemo` encodes each distinct identifier and set once per
certificate, and holds one text skeleton per distinct run of witness
triples: the run's triples with their set fields left out, so the run's
text for any set is one join with that set's field, made once per (set,
run).  Text that depends on the poset alone lives longer, in a
`TextTable`: each condition's string literal, its head of a name pair,
from which a refined name's text is joined straight off its selector grid,
and each level's identity skeleton, the skeleton of the run whose every
witness is its own condition.  A poset builds its table on first use
(`Poset.text_table`), every certificate over the poset shares it, and a
memo makes each run's skeleton by patching a slice of the identity
skeleton where the run's witnesses differ from their conditions.  A
record's own `to_text` joins a fresh list through the same writer, with a
fresh table, and its `to_jsonable` parses that text, so each layout is
spelled in one place.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from operator import ne
from pathlib import Path
from typing import Iterable

from .errors import DataError


def set_key(s: Iterable[str]) -> tuple[str, ...]:
    """Canonical key for a set of point or condition identifiers."""
    return tuple(sorted(s))


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
# function (`ensure_ascii`), each writer spells its object keys in sorted
# order, and no whitespace is added.

BOOL_TEXT = {False: "false", True: "true"}


class _Memo(dict):
    """A dict that fills a missing entry by calling `make` on its key,
    starting from the entries of `items`."""

    __slots__ = ("make",)

    def __init__(self, make, items=()):
        super().__init__(items)
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class TextTable:
    """Canonical text of conditions that does not depend on a certificate.

    `quoted[c]` is the JSON string literal of condition c, made at once for
    the conditions given and on first use for any other.  `pair_heads`
    holds, per condition given in identifier order, the head of a name
    pair, `{"condition":"c","set":`: the rows of a refined name's selector
    grid (see `names.RefineCertificate.refined_text`).
    `identity[conditions]` is the identity skeleton of a nonempty
    conditions tuple, the skeleton (see `TextMemo`) of the run that is the
    conditions themselves: `[head(c0), tail(c0) + "," + head(c1), ...,
    tail(c_last)]`.  A poset's table (`Poset.text_table`) holds its
    conditions, their pair heads and one identity skeleton per level it is
    asked for, and is shared read-only by every certificate over the
    poset: no entry is changed once made.
    """

    __slots__ = ("quoted", "pair_heads", "identity")

    def __init__(self, conditions: Iterable[str] = ()):
        self.quoted = _Memo(encode_basestring_ascii,
                            {c: encode_basestring_ascii(c) for c in conditions})
        self.pair_heads = tuple(['{"condition":' + self.quoted[c] + ',"set":' for c in sorted(self.quoted)])
        self.identity = _Memo(self._identity)

    def _identity(self, conditions: tuple[str, ...]) -> list[str]:
        literals = [self.quoted[c] for c in conditions]
        return ['{"condition":' + literals[0],
                *[',"witness":' + c + '},{"condition":' + d for c, d in zip(literals, literals[1:])],
                ',"witness":' + literals[-1] + "}"]


class TextMemo:
    """Canonical text of identifiers and identifier sets, each made once.

    `quoted[s]` is the JSON string literal of s, starting from the table's
    literals; `sets[u]` is the JSON list of u's members in sorted order,
    for a frozenset or a tuple.  `skeletons[conditions][run]` is a
    nonempty run's witness triples {"condition", <set field>, "witness"},
    the i-th witness with the i-th condition, cut where the set field goes:
    `[head(c0), tail(r0) + "," + head(c1), ..., tail(r_last)]`, with
    head(c) `{"condition":"c"` and tail(r) `,"witness":"r"}`.  A run may
    stop short of the conditions.  Joined with a set field, it is the run's
    triples for that set.  The memo is keyed by level conditions, then by
    run, so a writer looks its level up once and hashes the conditions
    tuple once per certificate record rather than once per run.

    Every skeleton is made one way, from the table's identity skeleton of
    the conditions: a run that is the conditions tuple itself, as
    `WitnessTable.run` returns it when no witness was searched, takes that
    skeleton as it is; any other takes a slice up to its length, rewrites
    the entries that follow a witness other than its condition, and ends
    with its last witness's tail.  Identity skeletons come from the table
    given, a poset's, shared by every certificate over it, or from a fresh
    one; the literals, sets and patched skeletons are kept for one
    certificate, whose identifiers, sets and runs recur across its sections.
    """

    __slots__ = ("table", "quoted", "sets", "skeletons")

    def __init__(self, table: TextTable | None = None):
        self.table = TextTable() if table is None else table
        self.quoted = _Memo(encode_basestring_ascii, self.table.quoted)
        self.sets = _Memo(self._list)
        self.skeletons = _Memo(self._level_skeletons)

    def _list(self, members) -> str:
        quoted = self.quoted
        return "[" + ",".join([quoted[x] for x in sorted(members)]) + "]"

    def _level_skeletons(self, conditions: tuple[str, ...]) -> _Memo:
        # no run over empty conditions is nonempty, so their identity is never read
        identity = self.table.identity[conditions] if conditions else []
        return _Memo(partial(self._skeleton, conditions, identity))

    def _skeleton(self, conditions: tuple[str, ...], identity: list[str], run) -> list[str]:
        if run is conditions:
            return identity
        quoted, n = self.quoted, len(run)
        skeleton = identity[:n]
        # entry i follows witness i - 1; the last witness's tail ends the skeleton
        for i in compress(range(1, n), map(ne, run, conditions)):
            skeleton[i] = ',"witness":' + quoted[run[i - 1]] + '},{"condition":' + quoted[conditions[i]]
        skeleton.append(',"witness":' + quoted[run[-1]] + "}")
        return skeleton


def write_array(out: list[str], texts: Iterable[str]) -> None:
    """Append a JSON array of item texts, each already canonical, to the
    fragment list `out`: a comma before each item, the first one turned
    into the opening bracket.  The items are not joined here."""
    start = len(out)
    out += chain.from_iterable(zip(repeat(","), texts))
    if len(out) == start:
        out.append("[]")
    else:
        out[start] = "["
        out.append("]")


def write_records(out: list[str], records, memo: TextMemo) -> None:
    """Append a JSON array of records to `out`, each laid out by its own
    `write(out, memo)`."""
    if not records:
        out.append("[]")
        return
    out.append("[")
    for record in records:
        record.write(out, memo)
        out.append(",")
    out[-1] = "]"


def joined(write, memo: TextMemo) -> str:
    """The text that `write(out, memo)` lays out, joined once."""
    out: list[str] = []
    write(out, memo)
    return "".join(out)


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
    Object fields and list items of a `str` or `int` shape are checked in
    place rather than by a call each, and a list of flat objects (see
    `_flat_items_fit`) one field at a time, with a call per item only on a fault.
    """
    kind = type(shape)
    if kind is dict:
        if type(value) is not dict:
            raise DataError(f"{_spell(where)} must be an object")
        complete = value.keys() == shape.keys()
        if not complete:
            unknown = sorted(value.keys() - shape.keys())
            if unknown:
                raise DataError(f"{_spell(where)} has unknown key {unknown[0]!r}")
        for key, item in shape.items():
            if not complete and key not in value:
                raise DataError(f"{_spell(where)} needs key {key!r}")
            if type(item) is type:
                if type(value[key]) is not item:
                    raise DataError(f"{_spell((where, key))} must be {_TYPE_NAMES[item]}")
            else:
                check_shape(value[key], item, (where, key))
    elif kind is list:
        if type(value) is not list:
            raise DataError(f"{_spell(where)} must be a list")
        item = shape[0]
        if type(item) is type:
            if not {item}.issuperset(map(type, value)):
                i = next(i for i, x in enumerate(value) if type(x) is not item)
                raise DataError(f"{_spell((where, i))} must be {_TYPE_NAMES[item]}")
        elif type(item) is not dict or not _flat_items_fit(value, item):
            for i, x in enumerate(value):
                check_shape(x, item, (where, i))
    elif kind is type:
        if type(value) is not shape:
            raise DataError(f"{_spell(where)} must be {_TYPE_NAMES[shape]}")
    elif kind is tuple:
        if type(value) is not list:
            raise DataError(f"{_spell(where)} must be a list")
        if len(value) != len(shape):
            raise DataError(f"{_spell(where)} must have {len(shape)} entries")
        for i, (x, item) in enumerate(zip(value, shape)):
            check_shape(x, item, (where, i))
    elif kind is frozenset:
        if type(value) is not str or value not in shape:
            raise DataError(f"{_spell(where)} must be one of {sorted(shape)}")
    else:
        shape(value, _spell(where))


def _flat_items_fit(items: list, shape: dict) -> bool:
    """True when every item fits an object shape whose fields are all `str`,
    `int` or a one-item list of either, checked one field at a time over
    all the items.  False, for any other shape too, leaves the items to the
    item by item check."""
    keys = shape.keys()
    if not {type(x) for x in items} <= {dict} or not all([x.keys() == keys for x in items]):
        return False
    for key, leaf in shape.items():
        column = {type(x[key]) for x in items}
        if type(leaf) is list and len(leaf) == 1 and type(leaf[0]) is type:
            if column - {list} or {type(m) for x in items for m in x[key]} - {leaf[0]}:
                return False
        elif type(leaf) is not type or column - {leaf}:
            return False
    return True


def _spell(where) -> str:
    """The dotted and indexed path of a `check_shape` location."""
    steps = []
    while type(where) is tuple:
        where, step = where
        steps.append(f".{step}" if type(step) is str else f"[{step}]")
    return where + "".join(reversed(steps))
