"""The three workloads: their seeded inputs, their requests and their checks.

A workload object is built from the workload seed; building it is the set-up
that ``setup_s`` times.  ``cycle()`` returns the next requests to send, one at
a time; ``execute`` is the timed part of a request and ``check`` the untimed
comparison with independent expectations.  Import this module only after
``benchenv.require_program()``.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass

from benchenv import ROOT, WORK, child_env
from certchecks import (
    CellCountLedger,
    expected_failures,
    glue_failure_problems,
    glue_problems,
    glue_text_problems,
    homology_problems,
    mutate,
    validate_problems,
)
from cpbound import cli, cobordism
from spantrace import Tracer, clock

CLI_TRACED = ROOT / "perfbench" / "cli_traced.py"
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Request:
    kind: str
    n: int
    argv: tuple[str, ...] = ()
    seed: int = 0
    json_in_bytes: int = 0

    @property
    def json_out(self) -> bool:
        return "--format" in self.argv and self.argv[self.argv.index("--format") + 1] == "json"


@dataclass(frozen=True)
class Outcome:
    exit_code: int
    stdout: str = ""
    report: object = None


class GlueLarge:
    """``build_W(k)`` then ``glue_report`` under three functional seeds, in process."""

    name = "glue-large"
    in_process = True

    def __init__(self, seed: int, k: int = 12) -> None:
        self.seed = seed
        self.k = k
        self.n = 2 * (k + 1)
        self._rng = random.Random(seed)
        self._ledger = CellCountLedger()

    def warm_up(self) -> None:
        cobordism.glue_report(cobordism.build_W(1), 0, extra_seeds=2)

    def cycle(self) -> list[Request]:
        return [Request("glue", self.n, seed=self._rng.randrange(2**31))]

    def execute(self, req: Request, tracer: Tracer | None) -> Outcome:
        report = cobordism.glue_report(cobordism.build_W(self.k), req.seed, extra_seeds=2)
        return Outcome(0 if report.passed else 1, report=report)

    def check(self, req: Request, out: Outcome) -> list[str]:
        problems = [] if out.report.passed else [f"n={self.n}: report did not pass"]
        return problems + glue_problems(cobordism.glue_report_to_json(out.report), self.n, self._ledger)

    def close(self) -> None:
        pass


class HomologySeeds:
    """``cpbound homology --k K --seeds S --format json``, called in process."""

    name = "homology-seeds"
    in_process = True

    def __init__(self, seed: int, k: int = 10, seeds: int = 24) -> None:
        self.seed = seed
        self.k = k
        self.n = 2 * (k + 1)
        self.seeds = seeds
        self._rng = random.Random(seed)
        self._ledger = CellCountLedger()

    def warm_up(self) -> None:
        cli.run(["homology", "--k", "1", "--seeds", "2", "--format", "json"], io.StringIO())

    def cycle(self) -> list[Request]:
        base = self._rng.randrange(2**31)
        argv = ("homology", "--k", str(self.k), "--seeds", str(self.seeds), "--seed", str(base), "--format", "json")
        return [Request("homology", self.n, argv)]

    def execute(self, req: Request, tracer: Tracer | None) -> Outcome:
        out = io.StringIO()
        code = cli.run(list(req.argv), out)
        return Outcome(code, out.getvalue())

    def check(self, req: Request, out: Outcome) -> list[str]:
        if out.exit_code != 0:
            return [f"homology n={req.n}: exit {out.exit_code}, expected 0"]
        return homology_problems(json.loads(out.stdout), req.n, self._ledger)

    def close(self) -> None:
        pass


class CliRoundtrip:
    """One ``python -m cpbound`` process per request, on seeded certificate files.

    Set-up writes a valid certificate and a mutated one for each k.  A cycle
    asks, for each k, ``validate`` on both, ``glue`` on the mutated one and
    ``glue`` on the valid one, with ``glue --k-range`` over all k as JSON
    after every quarter of these.
    """

    name = "cli-roundtrip"
    in_process = False
    EXIT = {"validate-valid": 0, "validate-mutated": 1, "glue-mutated": 1, "glue-valid": 0, "glue-range": 0}
    # The range request is the slowest.  Asking it RANGE_REPEATS times a cycle
    # gives every run of 30 s at least eleven of it, so request_s.tail (the
    # sample with ten above it) always falls among range requests.  With fewer,
    # it would fall on the border between two kinds of request, and move
    # whenever the number of cycles in a run changes.
    RANGE_REPEATS = 4

    def __init__(self, seed: int, ks: tuple[int, ...] = (1, 2, 3, 4, 5, 6)) -> None:
        self.seed = seed
        self.ks = ks
        self.dir = WORK / f"inputs-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self._env = child_env()
        self._ledger = CellCountLedger()
        self._expected: dict[int, Counter] = {}
        self._references: dict[int, str] = {}
        per_k: list[Request] = []
        rng = random.Random(seed)
        for k in ks:
            n = 2 * (k + 1)
            cert = cobordism.wmanifold_to_json(cobordism.build_W(k))
            mutated, facet = mutate(cert, rng)
            self._expected[n] = expected_failures(cert, facet)
            valid_path, mutated_path = self._write(f"w{k}.json", cert), self._write(f"w{k}-mutated.json", mutated)
            valid_bytes, mutated_bytes = valid_path.stat().st_size, mutated_path.stat().st_size
            per_k += [
                Request("validate-valid", n, ("validate", "--input", str(valid_path), "--format", "json"), json_in_bytes=valid_bytes),
                Request("validate-mutated", n, ("validate", "--input", str(mutated_path), "--format", "json"), json_in_bytes=mutated_bytes),
                Request("glue-mutated", n, ("glue", "--input", str(mutated_path), "--format", "json"), json_in_bytes=mutated_bytes),
                Request("glue-valid", n, ("glue", "--input", str(valid_path)), json_in_bytes=valid_bytes),
            ]
        glue_range = Request("glue-range", 0, ("glue", "--k-range", f"{ks[0]}:{ks[-1]}", "--format", "json"))
        step = len(per_k) // self.RANGE_REPEATS
        self._requests: list[Request] = []
        for i in range(0, len(per_k), step):
            self._requests += per_k[i : i + step] + [glue_range]

    def _write(self, name: str, cert: dict):
        path = self.dir / name
        path.write_text(json.dumps(cert, indent=2, sort_keys=True) + "\n")
        return path

    def warm_up(self) -> None:
        """Compute the ``glue --k k`` output each ``glue --input`` must match, and start one child."""
        for k in self.ks:
            out = io.StringIO()
            cli.run(["glue", "--k", str(k)], out)
            self._references[2 * (k + 1)] = out.getvalue()
        self.execute(self._requests[0], None)

    def cycle(self) -> list[Request]:
        return self._requests

    def execute(self, req: Request, tracer: Tracer | None) -> Outcome:
        trace_file = self.dir / "child-trace.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "cpbound", *req.argv]
        else:
            cmd = [sys.executable, str(CLI_TRACED), str(trace_file), *req.argv]
        launched = clock()
        proc = subprocess.run(cmd, cwd=ROOT, env=self._env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if tracer is not None:
            child = json.loads(trace_file.read_text())
            trace_file.unlink()
            tracer.absorb(child)
            tracer.process_starts_ns.append(child["ready_ns"] - launched)
        return Outcome(proc.returncode, proc.stdout)

    def check(self, req: Request, out: Outcome) -> list[str]:
        expected_exit = self.EXIT[req.kind]
        if out.exit_code != expected_exit:
            return [f"{req.kind} n={req.n}: exit {out.exit_code}, expected {expected_exit}"]
        if req.kind == "glue-valid":
            reference = self._references[req.n]
            problems = glue_text_problems(reference, req.n)
            if out.stdout != reference:
                problems.append(f"glue-valid n={req.n}: output differs from glue --k {req.n // 2 - 1}")
            return problems
        doc = json.loads(out.stdout)
        if req.kind == "validate-valid":
            return validate_problems(doc, req.n, Counter())
        if req.kind == "validate-mutated":
            return validate_problems(doc, req.n, self._expected[req.n])
        if req.kind == "glue-mutated":
            return glue_failure_problems(doc, req.n, self._expected[req.n])
        reports = doc["reports"]
        if [r["k"] for r in reports] != list(self.ks):
            return [f"glue-range: reports for k={[r['k'] for r in reports]}, expected {list(self.ks)}"]
        return [p for r in reports for p in glue_problems(r, 2 * (r["k"] + 1), self._ledger)]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (GlueLarge, HomologySeeds, CliRoundtrip)}
