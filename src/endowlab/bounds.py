"""Resource limits for desk scale runs.

All constructors and the scenario generator take a Limits value; the CLI
builds one from the ENDOWLAB_BOUNDS environment variable (a JSON object
overriding any subset of the fields).
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import DataError


class Limits(NamedTuple):
    max_indices: int = 5   # Cohen style index sets
    max_k: int = 3         # measure algebra exponent; 2^(2^k)-1 conditions
    max_points: int = 6    # space size
    max_base: int = 12     # subbase size
    max_poset: int = 40    # explicit posets and exhaustive enumeration
    max_levels: int = 8    # scenario name sequences, and the --n level of endow-verify, dow, approx and refine

    @classmethod
    def from_json(cls, text: str) -> "Limits":
        """Parse a JSON object overriding any subset of the default limits."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"not valid JSON: {exc}") from exc
        if type(data) is not dict:
            raise DataError("must be a JSON object")
        known = set(cls._fields)
        unknown = sorted(set(data) - known)
        if unknown:
            raise DataError(f"unknown keys: {unknown}")
        for key, value in data.items():
            if type(value) is not int or value < 0:
                raise DataError(f"{key} must be a nonnegative integer")
        return cls(**data)


DEFAULT_LIMITS = Limits()

ENV_VAR = "ENDOWLAB_BOUNDS"


def limits_from_env(environ) -> Limits:
    """Build limits from the environment, falling back to the defaults."""
    raw = environ.get(ENV_VAR)
    if not raw:
        return DEFAULT_LIMITS
    try:
        return Limits.from_json(raw)
    except DataError as exc:
        raise DataError(f"{ENV_VAR}: {exc}") from exc
