"""Take the pins: run every catalog entry once and record its exit codes and
output digest in pins.json.

Run only at a commit whose outputs are trusted, and say in the change that
re-pins why the answers moved:

    python3 bench/pin.py [workload ...]
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import WORK, WORKLOAD_NAMES, use_source_tree


def main(argv: list[str]) -> int:
    use_source_tree()
    from endowlab import cli
    from workloads import PINS, WORKLOADS, pin_of, run_op

    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    WORK.mkdir(exist_ok=True)
    for name in argv or WORKLOAD_NAMES:
        workdir = Path(tempfile.mkdtemp(dir=WORK))
        try:
            entries = {}
            for index, op in enumerate(WORKLOADS[name].catalog(workdir)):
                outcome = run_op(op, cli.main)
                if outcome.error is not None:
                    print(f"{op.key}: {outcome.error}", file=sys.stderr)
                    return 1
                entries[str(index)] = pin_of(outcome, op)
            pins[name] = entries
            print(f"{name}: {len(entries)} entries pinned")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    PINS.write_text(format_pins(pins))
    return 0


def format_pins(pins: dict) -> str:
    """One line per catalog entry, so a re-pin diffs entry by entry."""
    blocks = []
    for name in sorted(pins):
        entries = sorted(pins[name].items(), key=lambda item: int(item[0]))
        lines = [f'  "{key}": {json.dumps(pin, sort_keys=True)}' for key, pin in entries]
        blocks.append(f' "{name}": {{\n' + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
