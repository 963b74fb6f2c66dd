"""The cpbound benchmark: seeded closed-loop workloads, checked and timed.

Usage, from the root of a checkout:

    python3 perfbench/run.py                    # every workload, untraced then traced
    python3 perfbench/run.py --workload glue-large --seed 3 --seconds 30 --trace 0

``BENCHMARK.json`` at the checkout root lists the workloads and metrics.  An
untraced run (``--trace 0``) reports the end-to-end metrics; a traced run
(``--trace 1``) reports the per-layer metrics, taken by timing calls into
cpbound's public functions from this directory's files.  Each workload runs
in a fresh worker process (``worker.py``) with one client sending one request
at a time.  Times are reported at a reference machine speed, measured by a
fixed loop timed during every request and set-up (``worker.SpeedSampler``);
the raw wall times are printed beside them.  The last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same metrics by name with their units, the seed and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import benchenv
from spantrace import LAYERS, clock
from worker import SpeedSampler, median, tail

SPEC = benchenv.ROOT / "BENCHMARK.json"
WORKER = Path(__file__).with_name("worker.py")
SETUP_LAUNCHES = 11
WORKER_GRACE_S = 120

# Which end-to-end metric, on which workload, each per-layer metric should
# move; the longest matching prefix applies.
MOVES = {
    "zlinalg.": "request_s.p50 on glue-large; flat on homology-seeds",
    "charfn.": "request_s.p50 on glue-large; error_rate and request_s.p50 on cli-roundtrip",
    "polytope.": "request_s.p50 on glue-large (constructor, isomorphism, product)",
    "polytope.generate_functional": "request_s.p50 on homology-seeds",
    "polytope.functional_eval": "request_s.p50 on homology-seeds",
    "polytope.vertex_indices": "request_s.p50 on homology-seeds",
    "polytope.polytope_from_json": "request_s.p50 on cli-roundtrip",
    "cobordism.": "request_s.p50 on glue-large and homology-seeds",
    "cli.": "request_s.p50 on cli-roundtrip; setup_s on every workload",
    "request.": "share of request time outside every traced layer",
    "trace.": "tracing overhead; moves no end-to-end metric",
}


class RunFailed(RuntimeError):
    """A worker process did not produce a result."""


def moves(metric: str) -> str:
    return MOVES[max((p for p in MOVES if metric.startswith(p)), key=len)]


def time_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Times from launching a fresh interpreter until it has imported cpbound and built its inputs.

    Returns the times at reference speed and the raw wall times.  Like the
    cli-roundtrip worker, this process and the launched ones share one CPU
    while the speed sampler runs.
    """
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--setup-only"]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    at_speed, walls = [], []
    try:
        with SpeedSampler() as sampler:
            for _ in range(SETUP_LAUNCHES):
                mark = sampler.mark()
                start = time.perf_counter()
                with subprocess.Popen(cmd, cwd=benchenv.ROOT, stdout=subprocess.PIPE, text=True) as proc:
                    try:
                        line = proc.stdout.readline()
                        elapsed = time.perf_counter() - start
                        slowness, sampler_s = sampler.since(mark)
                        proc.wait(timeout=WORKER_GRACE_S)
                    except BaseException:
                        proc.kill()
                        raise
                if proc.returncode != 0 or line.strip() != "ready":
                    raise RunFailed(f"set-up of {workload} exited with {proc.returncode}")
                at_speed.append((elapsed - sampler_s) / slowness)
                walls.append(elapsed)
    finally:
        os.sched_setaffinity(0, cpus)
    return at_speed, walls


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    cmd = [sys.executable, str(WORKER), *args, "--launched-ns", str(clock())]
    with subprocess.Popen(cmd, cwd=benchenv.ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=seconds + WORKER_GRACE_S)
        except BaseException:
            proc.kill()
            raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_once(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload once; returns the final JSON object, after printing the details."""
    print(f"perfbench: workload={workload} seed={seed} seconds={seconds:g} trace={trace}")
    setups, setup_walls = ([], []) if trace else time_setup(workload, seed)
    raw = run_worker(workload, seed, seconds, trace)
    env = benchenv.environment()
    pinned = "no" if len(raw["cpus"]) == env["nproc"] else f"worker and children on cpu {raw['cpus']}"
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()) + f" cpu_pinned={pinned}")
    for problem in raw["problems"]:
        print(f"  wrong: {problem}")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"  {'error_rate':<48} {failed / attempted if attempted else 1.0:.4f}   ({failed} of {attempted} requests)")
    if trace:
        values, wanted = raw["layers"], spec["per_layer"]
    else:
        durations, walls = raw["durations_s"], raw["wall_durations_s"]
        tail_s, tail_pct = tail(durations)
        values = {
            "setup_s": median(setups),
            "request_s.p50": median(durations),
            "request_s.tail": tail_s,
            "requests_per_s": len(durations) / raw["loop_s"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
        at_speed = "at reference speed; wall"
        notes = {
            "setup_s": f"median of {len(setups)} launches, {at_speed} {median(setup_walls):.4g} s",
            "request_s.p50": f"{len(durations)} samples, {at_speed} {median(walls):.4g} s",
            "request_s.tail": f"p{tail_pct:.1f} of {len(durations)} samples, {at_speed} {tail(walls)[0]:.4g} s",
            "requests_per_s": f"{len(durations)} requests, {at_speed} {len(walls) / raw['wall_s']:.4g} 1/s",
            "peak_rss_mb": "worker process" if workload != "cli-roundtrip" else "largest child process",
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for m in wanted:
        note = moves(m["name"]) if trace else notes[m["name"]]
        print(f"  {m['name']:<48} {values[m['name']]:.6g} {m['unit']:<6} ({note})")
    if trace:
        total = sum(values[f"{layer}.self_s"] for layer in LAYERS) or 1.0
        shares = ", ".join(f"{layer} {values[f'{layer}.self_s'] / total:.0%}" for layer in LAYERS)
        print(f"  self-time shares: {shares}")
        print(f"  tracing overhead: {values['trace.overhead_s']:.4g} s per request (traced minus untraced request_s.p50)")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    try:
        spec = json.loads(SPEC.read_text())
        benchenv.require_program()
    except (OSError, ValueError, benchenv.MissingProgram) as exc:
        print(f"error: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names, help="one workload; all of them when omitted")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), help="0: end-to-end metrics, 1: per-layer metrics")
    args = ap.parse_args(argv)

    runs = [(w, t) for w in ([args.workload] if args.workload else names) for t in ((args.trace,) if args.trace is not None else (0, 1))]
    try:
        results = [(w, t, run_once(spec, w, args.seed, args.seconds, t)) for w, t in runs]
    except (RunFailed, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0][2]
    else:
        final = {
            "correct": all(r["correct"] for _, _, r in results),
            "attempted": sum(r["attempted"] for _, _, r in results),
            "failed": sum(r["failed"] for _, _, r in results),
            "metrics": {f"{w}/{name}": m for w, _, r in results for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
