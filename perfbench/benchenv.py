"""Where the benchmark finds the program under test, and what machine it runs on.

The benchmark runs from the root of a source checkout and imports ``cpbound``
from that checkout's ``src`` directory, never from an installed copy.  All
files it writes go under ``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


class MissingProgram(RuntimeError):
    """The checkout does not hold the cpbound sources."""


def require_program() -> None:
    """Put the checkout's ``src`` first on the import path and import cpbound from it."""
    if not (SRC / "cpbound" / "__init__.py").is_file():
        raise MissingProgram(f"no cpbound package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cpbound

    if Path(cpbound.__file__).resolve().parent != SRC / "cpbound":
        raise MissingProgram(f"imported cpbound from {cpbound.__file__}, not from {SRC}")


def child_env() -> dict[str, str]:
    """Environment for a ``python -m cpbound`` child that imports the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def git_revision() -> str:
    """The checkout's commit, or "unknown" when the checkout is not a git work tree."""
    git = shutil.which("git")
    if git is None:
        return "unknown"
    try:
        proc = subprocess.run(
            [git, "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
    }
