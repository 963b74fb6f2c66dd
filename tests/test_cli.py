import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cpbound.charfn import validate
from cpbound.cli import run
from cpbound.cobordism import build_W, wmanifold_from_json

GOLDENS = Path(__file__).parent / "goldens"


def invoke(*argv):
    buf = io.StringIO()
    code = run(list(argv), out=buf)
    return code, buf.getvalue()


class TestExitCodes:
    def test_glue_k1_passes(self):
        code, out = invoke("glue", "--k", "1")
        assert code == 0
        assert "conjugate-CP^3" in out
        assert "overall: PASS" in out

    def test_odd_dimension_rejected(self):
        code, _ = invoke("construct", "--n", "5")
        assert code == 2

    def test_k_and_n_conflict(self):
        code, _ = invoke("glue", "--k", "1", "--n", "4")
        assert code == 2

    def test_unknown_flag(self):
        code, _ = invoke("glue", "--bogus")
        assert code == 2

    def test_bad_r1(self):
        code, _ = invoke("glue", "--k", "1", "--r1", "1/3")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("glue", "--k", "1", "--r1", "1/0"),
            ("glue", "--k", "1", "--seeds", "0"),
            ("glue", "--k", "1", "--seeds", "-3"),
            ("homology", "--k", "1", "--seeds", "0"),
            ("homology", "--k", "1", "--seeds", "-3"),
        ],
    )
    def test_bad_option_is_a_one_line_error(self, argv, capsys):
        code, out = invoke(*argv)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("r1", ("1/0", "0/1", "1/4", "-1/5"))
    def test_loaded_r1_is_checked(self, tmp_path, capsys, r1):
        path = tmp_path / "w.json"
        invoke("construct", "--k", "1", "--output", str(path))
        data = json.loads(path.read_text())
        data["r1"] = r1
        path.write_text(json.dumps(data))
        capsys.readouterr()
        code, out = invoke("glue", "--input", str(path))
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = invoke("validate", "--input", str(bad))
        assert code == 2

    def test_mutated_input_fails_validation(self, tmp_path):
        code, out = invoke("construct", "--k", "1", "--output", str(tmp_path / "w.json"))
        assert code == 0
        data = json.loads((tmp_path / "w.json").read_text())
        data["pair"]["vectors"]["d3"] = [1, 0, 0]
        (tmp_path / "mutated.json").write_text(json.dumps(data))
        code, out = invoke("validate", "--input", str(tmp_path / "mutated.json"))
        assert code == 1
        assert "failures" in out

    def test_demo_passes(self):
        code, out = invoke("demo", "--n", "4")
        assert code == 0
        assert "conjugate-CP^3" in out
        assert "Overall: PASS" in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cpbound", "glue", "--k", "1", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["boundary_label"] == "conjugate-CP"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "--k", "1", "--format", "json"),
            ("glue", "--k", "2", "--format", "json", "--seed", "3"),
            ("homology", "--k", "1", "--format", "text"),
            ("boundary", "--n", "6", "--format", "json"),
            ("demo", "--n", "4"),
        ],
    )
    def test_byte_identical_reruns(self, argv):
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second

    def test_construct_matches_golden(self):
        _, out = invoke("construct", "--k", "1", "--format", "json")
        assert out == (GOLDENS / "w_n4.json").read_text()

    def test_glue_matches_golden(self):
        _, out = invoke("glue", "--k", "1", "--format", "json")
        assert out == (GOLDENS / "glue_k1.json").read_text()


class TestRoundTrip:
    def test_construct_load_validate_equals_in_memory(self, tmp_path):
        path = tmp_path / "w.json"
        code, _ = invoke("construct", "--n", "6", "--output", str(path))
        assert code == 0
        loaded = wmanifold_from_json(json.loads(path.read_text()))
        direct = build_W(2)
        rep_loaded = validate(loaded.pair)
        rep_direct = validate(direct.pair)
        assert rep_loaded.ok and rep_direct.ok
        assert rep_loaded.checked_vertices == rep_direct.checked_vertices

        code, out_loaded = invoke("validate", "--input", str(path))
        assert code == 0
        code, out_direct = invoke("validate", "--n", "6")
        assert code == 0
        assert out_loaded == out_direct

    def test_glue_from_file_matches_fresh(self, tmp_path):
        path = tmp_path / "w.json"
        invoke("construct", "--k", "1", "--output", str(path))
        _, from_file = invoke("glue", "--input", str(path), "--format", "json")
        _, fresh = invoke("glue", "--k", "1", "--format", "json")
        assert from_file == fresh


class TestBatchAndFormats:
    def test_k_range(self):
        code, out = invoke("glue", "--k-range", "1:3", "--format", "json")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["n"] for r in reports] == [4, 6, 8]
        assert [r["boundary_label"] for r in reports] == ["conjugate-CP", "CP", "conjugate-CP"]

    def test_seeds_agreement_flag(self):
        code, out = invoke("homology", "--k", "1", "--seeds", "5")
        assert code == 0
        assert "PASS" in out

    def test_boundary_text(self):
        code, out = invoke("boundary", "--n", "4")
        assert code == 0
        assert "Delta^1 x Delta^2" in out
        assert "(1, 2, 2, 1)" in out

    def test_construct_text_format(self):
        code, out = invoke("construct", "--k", "1", "--format", "text")
        assert code == 0
        assert "facets: 8, vertices: 16" in out
