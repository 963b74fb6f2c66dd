"""Run one workload in a fresh interpreter and print its raw results as JSON.

``run.py`` launches this file; it is not meant to be called by hand.

    python3 perfbench/worker.py --workload W --seed S --setup-only
    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 --launched-ns NS

With ``--setup-only`` it prints ``ready`` once cpbound is imported and the
inputs are built, then exits.  Otherwise it sends requests one at a time
(a closed loop with one client) until ``--seconds`` have passed, finishing
the current cycle of requests, and prints one JSON object.  A traced run
first measures half the time untraced, then installs the span wrappers and
measures the other half, so that the tracing overhead comes from one process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import benchenv
from spantrace import Tracer, clock, per_request

MAX_PROBLEMS_SHOWN = 20

# cpbound is pure Python, so it runs at the speed of the machine, and a shared
# machine's speed drifts by a quarter or more, over seconds and over minutes.
# A timer interrupts the worker every SAMPLE_INTERVAL_S and times a fixed loop.
# Each request time is also reported at the loop's reference speed: its wall
# time, less the sampler's own time, times REFERENCE_S over the mean loop time
# sampled during the request (or over the last MIN_SAMPLES, if fewer).  That
# removes the drift, which the raw wall times keep.
REFERENCE_ITERATIONS = 24_000
REFERENCE_S = 0.002
SAMPLE_INTERVAL_S = 0.1
MIN_SAMPLES = 10


class SpeedSampler:
    """Times the reference loop from a SIGALRM handler while in use."""

    def __init__(self) -> None:
        self.loop_s: list[float] = []
        self.busy_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        # CPU time, not wall time: a child sharing the CPU may preempt the loop.
        start = time.thread_time()
        acc = 0
        for i in range(REFERENCE_ITERATIONS):
            acc += i * i % 7
        elapsed = time.thread_time() - start
        self.loop_s.append(elapsed)
        self.busy_s += elapsed

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.loop_s), self.busy_s

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """The machine's slowness relative to the reference, and the sampler's time, since ``mark``."""
        first, busy = mark
        last = len(self.loop_s)
        window = self.loop_s[min(first, max(0, last - MIN_SAMPLES)) : last]
        return statistics.fmean(window) / REFERENCE_S, self.busy_s - busy


@dataclass
class Phase:
    durations_s: list[float] = field(default_factory=list)  # at reference speed, of correct answers
    wall_durations_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    loop_s: float = 0.0  # time spent on requests and checks, at reference speed
    wall_s: float = 0.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and that percentile.

    With 20 samples or fewer that percentile would not exceed the median, so
    the maximum is reported instead, as percentile 100.
    """
    if not values:
        return 0.0, 100.0
    ordered = sorted(values)
    if len(ordered) <= 20:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def _send(workload, req, tracer: Tracer | None, request_id: int) -> tuple[float, list[str]]:
    """One request: its wall time, and what was wrong with the answer."""
    scope = tracer.request_scope(request_id) if tracer else nullcontext()
    t0 = time.perf_counter()
    try:
        with scope:
            outcome = workload.execute(req, tracer)
    except Exception as exc:  # a crash of the program is a failed request
        return time.perf_counter() - t0, [f"{req.kind} n={req.n}: {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.counters["cli.json_in_bytes"] += req.json_in_bytes
        if req.json_out:
            tracer.counters["cli.json_out_bytes"] += len(outcome.stdout.encode())
    try:
        return elapsed, workload.check(req, outcome)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return elapsed, [f"{req.kind} n={req.n}: unreadable output ({type(exc).__name__}: {exc})"]


def measure(workload, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Closed loop: send each request after the previous one is answered."""
    phase = Phase()
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        while True:
            for req in workload.cycle():
                phase.attempted += 1
                mark = sampler.mark()
                t0 = time.perf_counter()
                elapsed, problems = _send(workload, req, tracer, phase.attempted)
                segment = time.perf_counter() - t0
                # The sampler runs on the request's CPU (in process, or pinned
                # with the child: see run()), so its time is taken out.
                slowness, sampler_s = sampler.since(mark)
                phase.wall_s += segment
                phase.loop_s += (segment - sampler_s) / slowness
                if problems:
                    phase.failed += 1
                    phase.problems += problems
                else:
                    phase.durations_s.append((elapsed - sampler_s) / slowness)
                    phase.wall_durations_s.append(elapsed)
            if time.perf_counter() - start >= seconds:
                break
    return phase


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def run(workload, seconds: float, trace: bool, process_start_ns: int | None) -> dict:
    if not workload.in_process:
        # Children inherit this, so the speed sampler times the CPU they run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload.warm_up()
    if not trace:
        phase = measure(workload, seconds)
        return {
            "attempted": phase.attempted,
            "failed": phase.failed,
            "problems": phase.problems[:MAX_PROBLEMS_SHOWN],
            "durations_s": phase.durations_s,
            "wall_durations_s": phase.wall_durations_s,
            "loop_s": phase.loop_s,
            "wall_s": phase.wall_s,
            "peak_rss_mb": peak_rss_mb(workload),
            "cpus": sorted(os.sched_getaffinity(0)),
        }
    untraced = measure(workload, seconds / 2)
    tracer = Tracer()
    if workload.in_process and process_start_ns is not None:
        tracer.process_starts_ns.append(process_start_ns)
    with tracer.installed():
        traced = measure(workload, seconds / 2, tracer)
    layers = per_request(tracer, traced.attempted)
    layers["trace.untraced_request_s.p50"] = median(untraced.durations_s)
    layers["trace.traced_request_s.p50"] = median(traced.durations_s)
    layers["trace.overhead_s"] = layers["trace.traced_request_s.p50"] - layers["trace.untraced_request_s.p50"]
    tracer.write(benchenv.WORK / f"spans-{workload.name}.jsonl", {"workload": workload.name, "seed": workload.seed})
    return {
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "problems": (untraced.problems + traced.problems)[:MAX_PROBLEMS_SHOWN],
        "layers": layers,
        "cpus": sorted(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched-ns", type=int, help="clock reading just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    try:
        benchenv.require_program()
    except benchenv.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    ready_ns = clock()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.setup_only:
            print("ready", flush=True)
            return 0
        process_start = ready_ns - args.launched_ns if args.launched_ns is not None else None
        result = run(workload, args.seconds, bool(args.trace), process_start)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
