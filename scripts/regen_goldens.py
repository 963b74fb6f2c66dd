#!/usr/bin/env python3
"""Regenerate the golden outputs under tests/goldens/.

Run after an intentional change to the JSON format or the text rendering,
then review the diff before committing.
"""

import io
import sys
from pathlib import Path

from cpbound.cli import run

GOLDENS = Path(__file__).resolve().parent.parent / "tests" / "goldens"

TARGETS = {
    "w_n4.json": ["construct", "--k", "1", "--format", "json"],
    "glue_k1.json": ["glue", "--k", "1", "--format", "json"],
    "glue_k1.txt": ["glue", "--k", "1"],
    "demo_n4.txt": ["demo", "--n", "4"],
    "homology_k1_seeds3.txt": ["homology", "--k", "1", "--seeds", "3"],
    "homology_k1_seeds3.json": ["homology", "--k", "1", "--seeds", "3", "--format", "json"],
    "glue_k1-6.json": ["glue", "--k-range", "1:6", "--format", "json"],
    "boundary_n8.json": ["boundary", "--n", "8", "--format", "json"],
    "glue_k24.txt": ["glue", "--k", "24"],
}


def main() -> int:
    GOLDENS.mkdir(parents=True, exist_ok=True)
    for name, argv in TARGETS.items():
        buf = io.StringIO()
        code = run(argv, out=buf)
        if code != 0:
            print(f"{name}: command {argv} exited {code}", file=sys.stderr)
            return 1
        (GOLDENS / name).write_text(buf.getvalue())
        print(f"wrote {GOLDENS / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
