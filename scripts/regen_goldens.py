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

# Golden file -> the exit code and the command that writes it; tests/test_cli.py checks each one.
# The failure goldens read two k = 2 certificates from GOLDENS, W with d0's vector set to 2 e_0 (a failing
# class walked vertex by vertex) and with d1's e_4 set to 2 e_4 (Gale vectors anchored at |d| = 2).
D0 = str(GOLDENS / "w_k2_d0_2e0.json")
D1 = str(GOLDENS / "w_k2_d1_2e4.json")
TARGETS = {
    "glue_k1.txt": (0, ["glue", "--k", "1"]),
    "demo_n4.txt": (0, ["demo", "--n", "4"]),
    "homology_k1_seeds3.txt": (0, ["homology", "--k", "1", "--seeds", "3"]),
    "homology_k1_seeds3.json": (0, ["homology", "--k", "1", "--seeds", "3", "--format", "json"]),
    "glue_k1-6.json": (0, ["glue", "--k-range", "1:6", "--format", "json"]),
    "boundary_n8.json": (0, ["boundary", "--n", "8", "--format", "json"]),
    "glue_k24.txt": (0, ["glue", "--k", "24"]),
    "w_n4.json": (0, ["construct", "--k", "1", "--format", "json"]),
    "glue_k1.json": (0, ["glue", "--k", "1", "--format", "json"]),
    "validate_k2_d0.txt": (1, ["validate", "--input", D0]),
    "validate_k2_d0.json": (1, ["validate", "--input", D0, "--format", "json"]),
    "glue_k2_d0.txt": (1, ["glue", "--input", D0]),
    "validate_k2_d1.txt": (1, ["validate", "--input", D1]),
    "validate_k2_d1.json": (1, ["validate", "--input", D1, "--format", "json"]),
    "glue_k2_d1.txt": (1, ["glue", "--input", D1]),
}


def main() -> int:
    GOLDENS.mkdir(parents=True, exist_ok=True)
    for name, (expected, argv) in TARGETS.items():
        buf = io.StringIO()
        code = run(argv, out=buf)
        if code != expected:
            print(f"{name}: command {argv} exited {code}, expected {expected}", file=sys.stderr)
            return 1
        (GOLDENS / name).write_text(buf.getvalue())
        print(f"wrote {GOLDENS / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
