"""Tests of the benchmark itself: span arithmetic, output checks, and tiny runs.

Run from the checkout root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import benchenv
import certchecks
import run
import spantrace
import worker
import workloads
from spantrace import Tracer, per_request, self_times

SPEC = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())


# --- self time -------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        (1, "request", 0, 100, None, 7),
        (2, "charfn.validate", 10, 40, 1, 7),
        (3, "zlinalg.determinant", 15, 20, 2, 7),
        (4, "zlinalg.determinant", 30, 60, 1, 7),  # overlaps span 2: covered once
        (5, "cli.run", 90, 120, 1, 7),  # runs past its parent: clipped
    ]
    assert self_times(spans) == {1: 100 - 50 - 10, 2: 30 - 5, 3: 5, 4: 30, 5: 30}


def test_per_request_sums_self_time_by_layer_and_divides_by_requests():
    tracer = Tracer()
    tracer.spans = [
        (1, "request", 0, 1000, None, 1),
        (2, "charfn.validate", 0, 600, 1, 1),
        (3, "zlinalg.determinant", 100, 300, 2, 1),
        (4, "zlinalg.smith_normal_form", 300, 500, 2, 1),
        (5, "request", 2000, 2100, None, 2),
    ]
    tracer.counters["charfn.distinct_vertex_sets"] = 3
    out = per_request(tracer, requests=2)
    assert out["charfn.validate.self_s"] == pytest.approx(200 / 2 / 1e9)
    assert out["zlinalg.self_s"] == pytest.approx(400 / 2 / 1e9)
    assert out["zlinalg.determinant.calls"] == 0.5
    assert out["request.outside_layers_s"] == pytest.approx((400 + 100) / 2 / 1e9)
    assert out["charfn.useful_ratio"] == pytest.approx(3 / 2)


def test_tracer_records_nothing_outside_a_request_and_uninstalls():
    from cpbound import cobordism

    original = cobordism.build_W
    tracer = Tracer()
    with tracer.installed():
        assert cobordism.build_W is not original
        cobordism.build_W(1)
        assert tracer.spans == []
        with tracer.request_scope(1):
            cobordism.build_W(1)
    assert cobordism.build_W is original
    names = {s[1] for s in tracer.spans}
    assert {"request", "cobordism.build_W", "charfn.validate", "zlinalg.determinant", "polytope.init"} <= names


def test_slowness_is_the_mean_loop_time_during_a_request_or_over_the_last_ten():
    sampler = worker.SpeedSampler()
    sampler.loop_s = [0.004] * 5 + [0.002] * 20
    sampler.busy_s = sum(sampler.loop_s)
    ref = worker.REFERENCE_S
    assert sampler.since((0, 0.0)) == pytest.approx((sum(sampler.loop_s) / 25 / ref, sampler.busy_s))
    assert sampler.since((23, sampler.busy_s - 0.004))[0] == pytest.approx(0.002 / ref)
    sampler.loop_s = [0.004] * 5 + [0.002] * 5
    assert sampler.since((9, 0.0))[0] == pytest.approx(0.003 / ref)


def test_tail_is_the_sample_with_ten_above_it():
    assert worker.tail([float(i) for i in range(25)]) == (14.0, 60.0)
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# --- output checks -----------------------------------------------------------------


@pytest.fixture
def roundtrip():
    w = workloads.CliRoundtrip(seed=5, ks=(1, 2))
    w.warm_up()
    yield w
    w.close()


def test_mutated_certificate_reported_as_pass_counts_as_an_error(roundtrip):
    valid = {r.n: r for r in roundtrip.cycle() if r.kind == "validate-valid"}
    real_execute = roundtrip.execute

    def lying_execute(req, tracer):
        # Every mutated request is answered with the verdict on the valid certificate.
        if req.kind in ("validate-mutated", "glue-mutated"):
            argv = tuple(valid[req.n].argv if req.kind == "validate-mutated" else ("glue", *valid[req.n].argv[1:]))
            return real_execute(workloads.Request(req.kind, req.n, argv), tracer)
        return real_execute(req, tracer)

    roundtrip.execute = lying_execute
    phase = worker.measure(roundtrip, 0)
    assert phase.attempted == 12
    assert phase.failed == 4  # validate and glue on the two mutated certificates
    assert all("exit 0, expected 1" in p for p in phase.problems)


def test_wrong_exit_code_or_failure_set_counts_as_an_error(roundtrip):
    reqs = {(r.kind, r.n): r for r in roundtrip.cycle()}
    good = roundtrip.execute(reqs["validate-mutated", 4], None)
    assert roundtrip.check(reqs["validate-mutated", 4], good) == []
    assert roundtrip.check(reqs["validate-mutated", 4], workloads.Outcome(2, good.stdout))
    doc = json.loads(good.stdout)
    doc["failures"] = doc["failures"][1:]
    assert roundtrip.check(reqs["validate-mutated", 4], workloads.Outcome(1, json.dumps(doc)))
    assert roundtrip.check(reqs["glue-valid", 4], workloads.Outcome(1, ""))


def test_glue_report_checks_catch_each_broken_invariant():
    from cpbound import cobordism

    doc = cobordism.glue_report_to_json(cobordism.glue_report(cobordism.build_W(2), 0))
    assert certchecks.glue_problems(doc, 6, certchecks.CellCountLedger()) == []
    broken = []
    for edit in (
        lambda d: d["checks"][3].update({"pass": False}),
        lambda d: d["checks"].pop(),
        lambda d: d["cells"].update({"1": d["cells"]["1"] + 1}),
        lambda d: d.update({"boundary_label": "conjugate-CP"}),
        lambda d: d["homology"].update({"11": 2}),
    ):
        d = json.loads(json.dumps(doc))
        edit(d)
        broken.append(certchecks.glue_problems(d, 6, certchecks.CellCountLedger()))
    assert all(broken)
    ledger = certchecks.CellCountLedger()
    assert ledger.problems(6, {1: 2, 3: 1}) == []
    assert ledger.problems(6, {1: 1, 3: 2})


def test_expected_failures_are_the_vertices_on_the_mutated_facet():
    import random

    from cpbound import cobordism

    cert = cobordism.wmanifold_to_json(cobordism.build_W(1))
    mutated, facet = certchecks.mutate(cert, random.Random(0))
    expected = certchecks.expected_failures(cert, facet)
    on_facet = [v for v in cert["pair"]["polytope"]["vertices"] if facet in v]
    assert sum(expected.values()) == len(on_facet) > 0
    assert mutated["pair"]["vectors"][facet] != cert["pair"]["vectors"][facet]
    assert sorted(mutated["pair"]["vectors"][facet])[-1] in (2, 3)


# --- tiny runs -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: workloads.GlueLarge(seed=3, k=2),
        lambda: workloads.HomologySeeds(seed=3, k=2, seeds=3),
        lambda: workloads.CliRoundtrip(seed=3, ks=(1, 2)),
    ],
    ids=["glue-large", "homology-seeds", "cli-roundtrip"],
)
def test_smoke_run_at_small_k_has_no_errors_and_every_layer_metric(make):
    w = make()
    try:
        w.warm_up()
        untraced = worker.measure(w, 0)
        tracer = Tracer()
        with tracer.installed():
            traced = worker.measure(w, 0, tracer)
    finally:
        w.close()
    assert untraced.failed == traced.failed == 0, untraced.problems + traced.problems
    layers = per_request(tracer, traced.attempted)
    trace_keys = {"trace.untraced_request_s.p50", "trace.traced_request_s.p50", "trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} - trace_keys <= set(layers)
    assert layers["zlinalg.self_s"] > 0 and layers["charfn.validate.calls"] > 0


def test_every_layer_metric_names_what_it_should_move():
    for m in SPEC["per_layer"]:
        assert run.moves(m["name"])
        assert m["name"].split(".")[0] in spantrace.LAYERS + ("request", "trace")


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(benchenv.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "glue-large", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
