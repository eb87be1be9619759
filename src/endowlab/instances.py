"""Instance files: strict shapes, load/save helpers, and fixed fixtures.

Every instance file is a JSON object {"format_version": 1, "kind": K,
"payload": P} with K one of poset, space, name, scenario.  Payloads are
checked against the `*_SHAPE` declared beside their class before any object
is built.  Files are read through `read_text` and written through
`write_text`, which use UTF-8 whatever the locale and turn an unreadable or
unwritable path into a DataError; `write_text` ends each file with a newline.
"""

from __future__ import annotations

from pathlib import Path

from .canon import canonical_json_pretty, check_shape, parse_json
from .errors import DataError
from .poset import NAME_SHAPE, POSET_SHAPE
from .preservation import SCENARIO_SHAPE, Scenario
from .topology import SPACE_SHAPE

FORMAT_VERSION = 1

PAYLOAD_SHAPES = {
    "poset": POSET_SHAPE,
    "space": SPACE_SHAPE,
    "name": NAME_SHAPE,
    "scenario": SCENARIO_SHAPE,
}
# the payload is checked once the kind is known
_ENVELOPE_SHAPE = {
    "format_version": int,
    "kind": frozenset(PAYLOAD_SHAPES),
    "payload": lambda value, where: None,
}


def wrap_instance(kind: str, payload) -> dict:
    if kind not in PAYLOAD_SHAPES:
        raise DataError(f"unknown instance kind {kind!r}")
    return {"format_version": FORMAT_VERSION, "kind": kind, "payload": payload}


def validate_instance(data, kind: str | None = None) -> str:
    """Validate a loaded instance object; returns the kind."""
    check_shape(data, _ENVELOPE_SHAPE, "instance")
    actual = data["kind"]
    if kind is not None and actual != kind:
        raise DataError(f"expected a {kind} instance, got {actual}")
    if data["format_version"] != FORMAT_VERSION:
        raise DataError(f"unsupported instance format version {data['format_version']}")
    check_shape(data["payload"], PAYLOAD_SHAPES[actual], actual)
    return actual


def read_text(path: str | Path) -> str:
    """Read a UTF-8 text file, whatever the locale; an unreadable or
    non-UTF-8 file is a DataError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc


def check_writable(path: str | Path) -> None:
    """Reject an output path that names a directory or whose directory does
    not exist, as a DataError, before any work is spent on its contents."""
    path = Path(path)
    if path.is_dir():
        raise DataError(f"cannot write {path}: it is a directory")
    if not path.parent.is_dir():
        raise DataError(f"cannot write {path}: {path.parent} is not an existing directory")


def write_text(path: str | Path, text: str) -> None:
    """Write `text` and then the newline that ends every file the program
    writes, without joining the two, as UTF-8 whatever the locale; an
    unwritable path is a DataError."""
    try:
        with Path(path).open("w", encoding="utf-8") as file:
            file.write(text)
            file.write("\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def read_json(path: str | Path):
    """Read and parse a JSON file; an unreadable file or bad JSON is a DataError."""
    return parse_json(read_text(path), path)


def load_instance(path: str | Path, kind: str | None = None) -> dict:
    """Read, parse, and validate an instance file; returns the payload."""
    data = read_json(path)
    validate_instance(data, kind)
    return data["payload"]


def save_instance(path: str | Path, kind: str, payload) -> None:
    write_text(path, canonical_json_pretty(wrap_instance(kind, payload)))


# -- fixtures ----------------------------------------------------------------


def pair_space_payload() -> dict:
    return {"points": ["x", "y"], "base": [["x"], ["x", "y"]]}


def cohen_pair_name_payload() -> list[dict]:
    """One branching name over the two point space: the empty side commits
    the small set and both full commitments carry the big one."""
    return [
        {"condition": "0:0", "set": ["x"]},
        {"condition": "0:0", "set": ["x", "y"]},
        {"condition": "0:1", "set": ["x", "y"]},
    ]


def measure_pair_name_payload() -> list[dict]:
    return [
        {"condition": "0", "set": ["x"]},
        {"condition": "0", "set": ["x", "y"]},
        {"condition": "1", "set": ["x", "y"]},
    ]


def fixture_cohen_pair(levels: int = 3, mode: str = "rothberger") -> Scenario:
    """Two index assignments poset over the two point space, one branching
    name repeated per level."""
    payload = {
        "poset": {"kind": "cohen", "indices": [0, 1]},
        "space": pair_space_payload(),
        "names": [cohen_pair_name_payload() for _ in range(levels)],
        "property": mode,
    }
    return Scenario.from_jsonable(payload)


def fixture_measure_pair(levels: int = 3, mode: str = "rothberger") -> Scenario:
    """Measure algebra on one coin over the two point space, the matching
    branching name repeated per level."""
    payload = {
        "poset": {"kind": "measure", "k": 1},
        "space": pair_space_payload(),
        "names": [measure_pair_name_payload() for _ in range(levels)],
        "property": mode,
    }
    return Scenario.from_jsonable(payload)
