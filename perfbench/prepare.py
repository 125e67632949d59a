"""Set-up of one benchmark run: import tdcount, build the inputs, load the references.

    python3 -S perfbench/prepare.py <workload>     prints 'ready' once set up

``run.py`` calls ``setup`` before it measures, and times fresh processes of
this script for ``setup_s``. It imports only what set-up needs, so the timed
process carries none of the driver's own imports.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"


def import_harness():
    """Put the checkout's ``src`` on the path and import the harness."""
    if not (SRC / "tdcount" / "__init__.py").is_file():
        print(f"error: no tdcount package under {SRC}; "
              "run from the root of a tdcount checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import harness

    return harness


def setup(harness, workload):
    """The workload's inputs and the reference answers."""
    items = harness.load_items(workload, SRC)
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return items, refs


if __name__ == "__main__":
    setup(import_harness(), sys.argv[1])
    print("ready", flush=True)
