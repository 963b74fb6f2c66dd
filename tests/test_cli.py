import copy
import importlib.util
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpbound import cli, cobordism
from cpbound.charfn import validate
from cpbound.cli import run
from cpbound.cobordism import CellStructure, build_W, wmanifold_from_json, wmanifold_to_json

GOLDENS = Path(__file__).parent / "goldens"
SCRIPTS = Path(__file__).parent.parent / "scripts"
_REGEN = importlib.util.spec_from_file_location("regen_goldens", SCRIPTS / "regen_goldens.py")
regen_goldens = importlib.util.module_from_spec(_REGEN)
_REGEN.loader.exec_module(regen_goldens)
CERTIFICATE = wmanifold_to_json(build_W(1))


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


    def test_consecutive_runs_print_what_fresh_processes_print(self, capsys):
        # ``run`` builds its argument parser once per process and reuses it.
        argvs = [
            ["glue", "--k", "1"],
            ["glue", "--k", "x"],
            ["validate", "--n", "6", "--format", "json"],
            ["homology", "--k", "1", "--seeds", "2"],
            ["glue", "--k", "1", "--n", "4"],
            ["boundary", "--n", "6", "--format", "json"],
        ]
        for argv in argvs:
            fresh = subprocess.run([sys.executable, "-m", "cpbound", *argv], capture_output=True, text=True)
            code = run(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


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

    @pytest.mark.parametrize("golden,argv", list(regen_goldens.TARGETS.items()))
    def test_output_matches_golden(self, golden, argv):
        """Every golden that ``scripts/regen_goldens.py`` writes, from the same command, which exits 0."""
        assert invoke(*argv) == (0, (GOLDENS / golden).read_text())


class TestRoundTrip:
    def test_construct_load_validate_equals_in_memory(self, tmp_path):
        path = tmp_path / "w.json"
        code, _ = invoke("construct", "--n", "6", "--output", str(path))
        assert code == 0
        loaded = wmanifold_from_json(json.loads(path.read_text()))
        direct = build_W(2)
        rep_loaded = validate(loaded.pair, lambda: loaded.labels)
        rep_direct = validate(direct.pair, lambda: direct.labels)
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


    @staticmethod
    def shuffled_pair(tmp_path, data, seed):
        """``data`` and a copy with its vertex list in a shuffled order, the coordinate rows kept aligned, as
        files; and the order: vertex j of the copy is vertex order[j] of ``data``."""
        order = list(range(len(data["pair"]["polytope"]["vertices"])))
        random.Random(seed).shuffle(order)
        mixed = copy.deepcopy(data)
        polytope = mixed["pair"]["polytope"]
        polytope["vertices"] = [polytope["vertices"][j] for j in order]
        polytope["coords"] = [polytope["coords"][j] for j in order]
        paths = tmp_path / "plain.json", tmp_path / "mixed.json"
        for path, blob in zip(paths, (data, mixed)):
            path.write_text(json.dumps(blob))
        return (*map(str, paths), order)

    @pytest.mark.parametrize("k", (2, 5))
    def test_a_shuffled_vertex_list_changes_no_result(self, tmp_path, k):
        plain, mixed, _ = self.shuffled_pair(tmp_path, wmanifold_to_json(build_W(k)), k)
        for command in ("glue", "boundary", "homology"):
            for fmt in ("text", "json"):
                argv = (command, "--format", fmt)
                expected = invoke(*argv, "--k", str(k))
                assert invoke(*argv, "--input", mixed) == invoke(*argv, "--input", plain) == expected

    @pytest.mark.parametrize("k", (2, 5))
    def test_a_shuffled_mutant_lists_the_same_failures_in_its_own_order(self, tmp_path, k):
        data = wmanifold_to_json(build_W(k))
        vector = data["pair"]["vectors"]["d0"]
        vector[:] = [2] + [0] * (len(vector) - 1)
        plain, mixed, order = self.shuffled_pair(tmp_path, data, k)
        for command in ("validate", "glue"):
            assert invoke(command, "--input", plain)[0] == invoke(command, "--input", mixed)[0] == 1
        failures = {}
        for path in (plain, mixed):
            code, out = invoke("validate", "--input", path, "--format", "json")
            failures[path] = json.loads(out)["failures"]
        width = len(str(len(order)))
        by_vertex = {f["vertex"]: f for f in failures[plain]}
        expected = [
            {**by_vertex[f"v{old:0{width}d}"], "vertex": f"v{new:0{width}d}"}
            for new, old in enumerate(order)
            if f"v{old:0{width}d}" in by_vertex
        ]
        assert len(failures[plain]) > 1
        assert failures[mixed] == expected


class TestBatchAndFormats:
    def test_k_range(self):
        code, out = invoke("glue", "--k-range", "1:3", "--format", "json")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["n"] for r in reports] == [4, 6, 8]
        assert [r["boundary_label"] for r in reports] == ["conjugate-CP", "CP", "conjugate-CP"]

    @pytest.mark.parametrize("k_range", ("1", "1:", ":3", "a:b", "3:1", "0:2"))
    def test_bad_k_range(self, capsys, k_range):
        code, out = invoke("glue", "--k-range", k_range)
        err = f"error: bad k range {k_range!r}: expected LO:HI with 1 <= LO <= HI\n"
        assert (code, out, capsys.readouterr().err) == (2, "", err)

    @pytest.mark.parametrize(
        "option", (("--n", "8"), ("--k", "1"), ("--k", "3"), ("--n", "4"), ("--r1", "1/7", "--k", "2"))
    )
    @pytest.mark.parametrize("k_range", ("1:1", "2:3"))
    def test_k_range_excludes_k_and_n(self, capsys, option, k_range):
        code, out = invoke("glue", *option, "--k-range", k_range)
        err = f"error: --k-range and {option[-2]} are mutually exclusive\n"
        assert (code, out, capsys.readouterr().err) == (2, "", err)

    def test_k_range_takes_r1(self):
        code, out = invoke("glue", "--k-range", "1:2", "--r1", "1/7", "--format", "json")
        assert code == 0
        assert [r["n"] for r in json.loads(out)["reports"]] == [4, 6]

    def test_seeds_agreement_flag(self):
        code, out = invoke("homology", "--k", "1", "--seeds", "5")
        assert code == 0
        assert "PASS" in out

    def test_boundary_text(self):
        code, out = invoke("boundary", "--n", "4")
        assert code == 0
        assert "Delta^1 x Delta^2" in out
        assert "(1, 2, 2, 1)" in out

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (
                ("boundary", "--n", "4"),
                "P1: Delta^1 x Delta^2, 6 vertices, h-vector (1, 2, 2, 1), Betti (even degrees) (1, 2, 2, 1)\n"
                "P2: Delta^1 x Delta^2, 6 vertices, h-vector (1, 2, 2, 1), Betti (even degrees) (1, 2, 2, 1)\n"
                "P3: Delta^3, 4 vertices, h-vector (1, 1, 1, 1), Betti (even degrees) (1, 1, 1, 1)\n",
            ),
            (
                ("boundary", "--n", "6", "--seed", "2"),
                "P1: Delta^2 x Delta^3, 12 vertices, h-vector (1, 2, 3, 3, 2, 1), "
                "Betti (even degrees) (1, 2, 3, 3, 2, 1)\n"
                "P2: Delta^2 x Delta^3, 12 vertices, h-vector (1, 2, 3, 3, 2, 1), "
                "Betti (even degrees) (1, 2, 3, 3, 2, 1)\n"
                "P3: Delta^5, 6 vertices, h-vector (1, 1, 1, 1, 1, 1), "
                "Betti (even degrees) (1, 1, 1, 1, 1, 1)\n",
            ),
        ],
    )
    def test_boundary_text_pinned(self, argv, expected):
        assert invoke(*argv) == (0, expected)

    def test_boundary_json_pinned(self):
        def row(facet, label, vertices, h):
            return {
                "betti_even": {str(2 * i): x for i, x in enumerate(h)},
                "facet": facet,
                "h_vector": list(h),
                "polytope": label,
                "vertices": vertices,
            }

        expected = {
            "components": [
                row("P1", "Delta^1 x Delta^2", 6, (1, 2, 2, 1)),
                row("P2", "Delta^1 x Delta^2", 6, (1, 2, 2, 1)),
                row("P3", "Delta^3", 4, (1, 1, 1, 1)),
            ]
        }
        text = json.dumps(expected, indent=2, sort_keys=True, separators=(",", ": ")) + "\n"
        assert invoke("boundary", "--n", "4", "--format", "json") == (0, text)

    def test_construct_text_format(self):
        code, out = invoke("construct", "--k", "1", "--format", "text")
        assert code == 0
        assert "facets: 8, vertices: 16" in out


def vertices_as_int(data):
    data["pair"]["polytope"]["vertices"] = 5
    return data


def set_at(*path_and_value):
    """An edit of the certificate that sets the node at ``path`` to ``value``."""
    *path, key, value = path_and_value

    def edit(data):
        node = data
        for step in path:
            node = node[step]
        node[key] = value
        return data

    return edit


# JSON numbers where the loader needs strings ("p/q") or integers: each was
# once coerced by Fraction() or int() and certified.
COERCED_NUMBERS = {
    "r1-float": set_at("r1", 0.2),
    "vector-floats": set_at("pair", "vectors", "d0", [0.9, 1.9, 1.9]),
    "n-float": set_at("n", 4.7),
    "torus-rank-float": set_at("pair", "torus_rank", 3.5),
    "coords-float": set_at("pair", "polytope", "coords", 0, [0.0, 0.8, 0.0, 0.0, 0.2]),
    "coords-int": set_at("pair", "polytope", "coords", 0, [0, 1, 0, 0, 0]),
    "dim-string": set_at("pair", "polytope", "dim", "4"),
    "facet-index-bool": set_at("pair", "polytope", "facets", 3, "provenance", "index", True),
}


def without_coords(data):
    del data["pair"]["polytope"]["coords"]
    return data


# A W certificate is a truncated simplex and always carries coordinates.
NO_COORDS = {"coords-missing": without_coords, "coords-null": set_at("pair", "polytope", "coords", None)}


# The k = 1 certificate with d0's vector replaced by 2 e_0: ten vertices fail validation.
doubled_d0 = set_at("pair", "vectors", "d0", [2, 0, 0])


def p3_as_original_facet(data):
    """The certificate with P3's provenance relabelled as an original facet."""
    for facet in data["pair"]["polytope"]["facets"]:
        if facet["id"] == "P3":
            facet["provenance"] = {"kind": "original", "index": 99}
    return data


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_homology_names_the_vertex_where_the_cell_structure_fails(tmp_path, capsys, fmt):
    # Relabelling P3 once put four root edges at vertex v12; now the polytope
    # is not the truncated simplex, and it is rejected before any cell.
    path = tmp_path / "w.json"
    path.write_text(json.dumps(p3_as_original_facet(copy.deepcopy(CERTIFICATE))))
    code, out = invoke("homology", "--input", str(path), "--format", fmt)
    assert (code, out) == (
        1,
        "validation failed: facet P3 has provenance original 99, expected cut {d0, d1, d3, d4}\n",
    )
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("command", ("homology", "boundary"))
def test_invalid_loaded_certificate_fails_before_any_result(tmp_path, capsys, command, fmt):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doubled_d0(copy.deepcopy(CERTIFICATE))))
    assert invoke("validate", "--input", str(path))[0] == 1
    code, out = invoke(command, "--input", str(path), "--format", fmt)
    assert (code, out) == (1, "validation failed: 10 failures, first at vertex v00\n")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command,option",
    [
        ("glue", ("--k", "3")),
        ("glue", ("--n", "4")),
        ("glue", ("--k-range", "2:2")),
        ("validate", ("--k", "1")),
        ("boundary", ("--n", "6")),
        ("homology", ("--k", "2")),
        # A loaded certificate carries its own r1; a given one would be ignored.
        ("validate", ("--r1", "1/0")),
        ("glue", ("--r1", "1/7")),
    ],
)
def test_input_excludes_a_size_option(tmp_path, capsys, command, option):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(CERTIFICATE))
    code, out = invoke(command, *option, "--input", str(path))
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err == f"error: --input and {option[0]} are mutually exclusive\n"


class TestMalformedCertificates:
    @pytest.mark.parametrize("edit", [lambda data: [1, 2], vertices_as_int], ids=["top-level-list", "vertices-int"])
    def test_wrong_json_type(self, tmp_path, capsys, edit):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(edit(copy.deepcopy(CERTIFICATE))))
        code, out = invoke("glue", "--input", str(path))
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: malformed certificate: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ("glue", "validate"))
    @pytest.mark.parametrize(
        "edit,where,kind",
        [
            (lambda data: [data], "the certificate", "list"),
            (lambda data: "w.json", "the certificate", "str"),
            (set_at("pair", None), "pair", "null"),
            (set_at("pair", []), "pair", "list"),
            (set_at("pair", "polytope", [1, 2]), "polytope", "list"),
            (set_at("pair", "vectors", []), "vectors", "list"),
            (set_at("pair", "vectors", 7), "vectors", "int"),
            (set_at("pair", "polytope", "facets", 4, ["d1", {"kind": "original"}]), "facet entry 4", "list"),
            (set_at("pair", "polytope", "facets", 0, "provenance", "cut"), "the provenance of facet entry 0", "str"),
            (set_at("pair", "polytope", "facets", 3, "provenance", None), "the provenance of facet entry 3", "null"),
        ],
        ids=[
            "top-level-list", "top-level-string", "pair-null", "pair-list", "polytope-list", "vectors-list",
            "vectors-int", "facet-entry-list", "provenance-string", "provenance-null",
        ],
    )
    def test_not_an_object(self, tmp_path, capsys, command, edit, where, kind):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(edit(copy.deepcopy(CERTIFICATE))))
        code, out = invoke(command, "--input", str(path))
        err = f"error: malformed certificate: {where} must be a JSON object, got {kind}\n"
        assert (code, out, capsys.readouterr().err) == (2, "", err)

    @pytest.mark.parametrize("command", ("glue", "validate"))
    @pytest.mark.parametrize(
        "edit,where",
        [
            (set_at("pair", "vectors", "d0", 7), "vector d0"),
            (set_at("pair", "polytope", "facets", 5), "facets"),
            (set_at("pair", "polytope", "facets", 0, "provenance", "face", 5), "the cut face of facet entry 0"),
            (set_at("pair", "polytope", "vertices", 5), "vertices"),
            (set_at("pair", "polytope", "vertices", 3, 5), "vertex entry 3"),
            (set_at("pair", "polytope", "coords", 5), "coords"),
            (set_at("pair", "polytope", "coords", 2, 5), "coordinate row 2"),
        ],
        ids=["vector", "facets", "cut-face", "vertices", "vertex-entry", "coords", "coordinate-row"],
    )
    def test_not_an_array(self, tmp_path, capsys, command, edit, where):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(edit(copy.deepcopy(CERTIFICATE))))
        code, out = invoke(command, "--input", str(path))
        err = f"error: malformed certificate: {where} must be a JSON array, got int\n"
        assert (code, out, capsys.readouterr().err) == (2, "", err)

    @pytest.mark.parametrize("command", ("validate", "glue"))
    @pytest.mark.parametrize("edit", COERCED_NUMBERS.values(), ids=COERCED_NUMBERS.keys())
    def test_json_number_of_the_wrong_kind(self, tmp_path, capsys, command, edit):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(edit(copy.deepcopy(CERTIFICATE))))
        code, out = invoke(command, "--input", str(path))
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: malformed certificate: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ("glue", "validate", "homology", "boundary"))
    @pytest.mark.parametrize("edit", NO_COORDS.values(), ids=NO_COORDS.keys())
    def test_missing_coordinates(self, tmp_path, capsys, command, edit):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(edit(copy.deepcopy(CERTIFICATE))))
        code, out = invoke(command, "--input", str(path))
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err == "error: malformed certificate: the polytope carries no vertex coordinates\n"

    @pytest.mark.parametrize("command", ("glue", "validate"))
    @pytest.mark.parametrize(
        "place,value,err",
        [
            ((0, 1), "1/0", "error: '1/0' has a zero denominator"),
            ((13, 4), "3/0", "error: '3/0' has a zero denominator"),
            ((2, 0), "abc", "error: Invalid literal for Fraction: 'abc'"),
            ((13, 0), "0/1x", "error: Invalid literal for Fraction: '0/1x'"),
            ((0, 0), [1], "error: malformed certificate: expected a fraction string 'p/q', got [1]"),
            ((5, 2), 0.5, "error: malformed certificate: expected a fraction string 'p/q', got 0.5"),
            ((1, 1), None, "error: malformed certificate: expected a fraction string 'p/q', got None"),
        ],
    )
    def test_bad_coordinate(self, tmp_path, capsys, command, place, value, err):
        # Coordinate strings are parsed once each; a bad one still fails where it stands.
        path = tmp_path / "w.json"
        path.write_text(json.dumps(set_at("pair", "polytope", "coords", *place, value)(copy.deepcopy(CERTIFICATE))))
        code, out = invoke(command, "--input", str(path))
        assert (code, out, capsys.readouterr().err) == (2, "", err + "\n")

    @pytest.mark.parametrize("command", ("glue", "validate", "homology", "boundary"))
    @pytest.mark.parametrize(
        "place,where",
        [
            ((), "the certificate"),
            (("pair",), "pair"),
            (("pair", "polytope"), "polytope"),
            (("pair", "polytope", "facets", 4), "facet entry 4"),
            (("pair", "polytope", "facets", 0, "provenance"), "the provenance of facet entry 0"),  # P1, a cut
            (("pair", "polytope", "facets", 3, "provenance"), "the provenance of facet entry 3"),  # d0, original
        ],
    )
    def test_unknown_key(self, tmp_path, capsys, command, place, where):
        data = copy.deepcopy(CERTIFICATE)
        node = data
        for key in place:
            node = node[key]
        node["note"] = "ignored?"
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data))
        code, out = invoke(command, "--input", str(path))
        err = f"error: malformed certificate: unknown key 'note' in {where}\n"
        assert (code, out, capsys.readouterr().err) == (2, "", err)

    @pytest.mark.parametrize("command", ("glue", "validate", "homology", "boundary"))
    @pytest.mark.parametrize(
        "place,key",
        [
            ((), "pair"),
            (("pair",), "vectors"),
            (("pair", "polytope"), "dim"),
            (("pair", "polytope", "facets", 4), "id"),
            (("pair", "polytope", "facets", 3, "provenance"), "index"),  # d0, original
        ],
    )
    def test_missing_key(self, tmp_path, capsys, command, place, key):
        data = copy.deepcopy(CERTIFICATE)
        node = data
        for step in place:
            node = node[step]
        del node[key]
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data))
        code, out = invoke(command, "--input", str(path))
        err = f"error: malformed certificate: missing key {key!r}\n"
        assert (code, out, capsys.readouterr().err) == (2, "", err)

    @pytest.mark.parametrize("command", ("glue", "validate", "homology", "boundary"))
    @pytest.mark.parametrize("facet", ("d0", "d2", "d4"))
    def test_root_facet_without_a_vector(self, tmp_path, capsys, command, facet):
        # Named as the facet without a vector, not as a fourth boundary facet.
        data = copy.deepcopy(CERTIFICATE)
        del data["pair"]["vectors"][facet]
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data))
        code, out = invoke(command, "--input", str(path))
        err = f"error: malformed certificate: root facet {facet} carries no vector\n"
        assert (code, out, capsys.readouterr().err) == (2, "", err)

    @pytest.mark.parametrize("command", ("glue", "validate", "homology", "boundary"))
    @pytest.mark.parametrize("entry,kind", [(1, "x"), (3, None), (4, "Original")])  # P2, a cut; d0 and d1, originals
    def test_unknown_provenance_kind(self, tmp_path, capsys, command, entry, kind):
        edit = set_at("pair", "polytope", "facets", entry, "provenance", "kind", kind)
        path = tmp_path / "w.json"
        path.write_text(json.dumps(edit(copy.deepcopy(CERTIFICATE))))
        code, out = invoke(command, "--input", str(path))
        err = f"error: malformed certificate: unknown provenance kind {kind!r} in facet entry {entry}\n"
        assert (code, out, capsys.readouterr().err) == (2, "", err)

    @pytest.mark.parametrize("command", ("glue", "validate", "homology", "boundary"))
    def test_vertex_entry_with_keys(self, tmp_path, capsys, command):
        data = copy.deepcopy(CERTIFICATE)
        vertices = data["pair"]["polytope"]["vertices"]
        vertices[3] = {"facets": vertices[3]}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data))
        code, out = invoke(command, "--input", str(path))
        err = "error: malformed certificate: unknown key 'facets' in vertex entry 3\n"
        assert (code, out, capsys.readouterr().err) == (2, "", err)

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out = invoke("validate", "--input", str(path))
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == "error: malformed certificate: JSON nested too deeply\n"


def with_moved_vertex(index, coord):
    data = copy.deepcopy(CERTIFICATE)
    data["pair"]["polytope"]["coords"][index] = coord
    return data


# The certificate whose glue --input once passed with wrong odd cells {1: 2, 3: 2, 5: 3, 7: 1}.
MOVED_VERTEX_3 = with_moved_vertex(3, ["-6/3", "-10/3", "7/1", "-14/2", "-6/1"])


@pytest.mark.parametrize(
    "data,seeds,out",
    [
        # seed 1 once drew a degenerate functional on this certificate
        (
            with_moved_vertex(4, ["14/4", "-15/1", "0/5", "11/1", "-1/5"]),
            "2",
            "validation failed: vertex v04 is not A0|d3 of the truncated 4-simplex at r1 = 1/5: "
            "coordinate 0 is 7/2, expected 4/5\n",
        ),
        # seed 1 once gave other counts on this one
        (
            MOVED_VERTEX_3,
            "3",
            "validation failed: vertex v03 is not A0|d4 of the truncated 4-simplex at r1 = 1/5: "
            "coordinate 0 is -2/1, expected 4/5\n",
        ),
    ],
    ids=["degenerate-extra-seed", "varying-counts"],
)
def test_homology_under_extra_seeds(tmp_path, capsys, data, seeds, out):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(data))
    assert invoke("homology", "--input", str(path), "--seeds", seeds) == (1, out)
    assert invoke("glue", "--input", str(path), "--seeds", seeds) == (1, out)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("command", ("validate", "boundary", "homology", "glue"))
def test_unrealised_certificate_fails_before_any_result(tmp_path, capsys, command, fmt):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(MOVED_VERTEX_3))
    code, out = invoke(command, "--input", str(path), "--format", fmt)
    assert (code, out) == (
        1,
        "validation failed: vertex v03 is not A0|d4 of the truncated 4-simplex at r1 = 1/5: "
        "coordinate 0 is -2/1, expected 4/5\n",
    )
    assert capsys.readouterr().err == ""


def fewer_cells(structure):
    return CellStructure(structure.n, structure.counts[:-1])


@pytest.mark.parametrize(
    "outcome,out",
    [
        (
            ValueError("index profile is degenerate: expected a unique source and sink"),
            "cell structure failed: index profile is degenerate: expected a unique source and sink\n",
        ),
        (fewer_cells, "cell counts varied across functionals; construction is broken\n"),
    ],
    ids=["degenerate-extra-seed", "varying-counts"],
)
def test_cell_stage_failures_exit_1_from_homology_and_glue(monkeypatch, tmp_path, capsys, outcome, out):
    # No input reaches these: the closed-form cells of the truncated simplex
    # neither fail nor vary.  A patched cell_structure fails under seed 1.
    real = cobordism.cell_structure

    def patched(W, seed=0):
        if seed != 1:
            return real(W, seed)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome(real(W, seed))

    monkeypatch.setattr(cobordism, "cell_structure", patched)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(CERTIFICATE))
    for source in (("--k", "1"), ("--input", str(path))):
        assert invoke("homology", *source, "--seeds", "2") == (1, out)
        code, glue_out = invoke("glue", *source, "--seeds", "2")
        assert code == 1 and "[FAIL] cell-structure" in glue_out and "[PASS] euler-cross-check" in glue_out
    assert capsys.readouterr().err == ""


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 50) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def mutated_certificates(draw):
    """The k = 1 certificate with one node replaced, deleted or given a new key."""
    data = copy.deepcopy(CERTIFICATE)
    parent, key = None, None
    node = data
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 5)) > 0:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    action = draw(st.sampled_from(("replace", "delete", "add")))
    if parent is None:
        return draw(JSON_VALUES)
    if action == "replace":
        parent[key] = draw(JSON_VALUES)
    elif action == "delete":
        del parent[key]
    elif isinstance(node, dict):
        node[draw(st.text(max_size=3))] = draw(JSON_VALUES)
    elif isinstance(node, list):
        node.append(draw(JSON_VALUES))
    else:
        parent[key] = [node]
    return data


@pytest.fixture(scope="module")
def cert_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("certificates")


@settings(max_examples=150, deadline=None)
@given(data=mutated_certificates(), command=st.sampled_from(("validate", "boundary", "homology", "glue")))
@example(data=p3_as_original_facet(copy.deepcopy(CERTIFICATE)), command="homology")
@example(data=MOVED_VERTEX_3, command="glue")
@example(data=doubled_d0(copy.deepcopy(CERTIFICATE)), command="homology")
@example(data=doubled_d0(copy.deepcopy(CERTIFICATE)), command="boundary")
@example(data=COERCED_NUMBERS["r1-float"](copy.deepcopy(CERTIFICATE)), command="glue")
@example(data=COERCED_NUMBERS["vector-floats"](copy.deepcopy(CERTIFICATE)), command="validate")
@example(data=COERCED_NUMBERS["n-float"](copy.deepcopy(CERTIFICATE)), command="glue")
@example(data=COERCED_NUMBERS["torus-rank-float"](copy.deepcopy(CERTIFICATE)), command="homology")
@example(data=COERCED_NUMBERS["coords-float"](copy.deepcopy(CERTIFICATE)), command="boundary")
def test_mutated_certificates_keep_the_exit_contract(cert_dir, data, command):
    path = cert_dir / "w.json"
    path.write_text(json.dumps(data))
    code, _ = invoke(command, "--input", str(path))
    assert code in (0, 1, 2)


@pytest.mark.parametrize("command", ("glue", "homology", "validate", "boundary", "construct"))
def test_out_of_memory_exits_2_with_an_error_line(monkeypatch, capsys, command):
    # A request too large for the memory available is no failed check: it exits 2, not with a traceback.
    def exhausted(k, r1=None):
        raise MemoryError

    monkeypatch.setattr(cli, "build_W", exhausted)
    out = io.StringIO()
    assert run([command, "--k", "3"], out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == f"error: out of memory running {command}; try a smaller --k or --n\n"


def first_too_large(size):
    """The least x >= 1 for which W of dimension n = size(x) has more vertices, n(n+4)/2, than an index can count."""
    lo, hi = 1, sys.maxsize
    while lo < hi:
        mid = (lo + hi) // 2
        n = size(mid)
        lo, hi = (lo, mid) if n * (n + 4) // 2 > sys.maxsize else (mid + 1, hi)
    return lo


FIRST_K = first_too_large(lambda k: 2 * (k + 1))
FIRST_N = 2 * first_too_large(lambda half: 2 * half)


class TestSizeLimits:
    """A size whose vertex count cannot be an index exits 2 with one error line naming the option, before W is built.

    Only rejected sizes run a command: one below the limit would be accepted and allocate.
    """

    @pytest.fixture(autouse=True)
    def nothing_built(self, monkeypatch):
        def refused(k, r1=None):
            raise AssertionError("a too-large W was built")

        monkeypatch.setattr(cli, "build_W", refused)

    def test_the_limits_are_the_first_sizes_rejected(self):
        assert cli._indexable(2 * FIRST_K, "--k") == 2 * FIRST_K  # k = FIRST_K - 1 would be built
        assert cli._indexable(FIRST_N - 2, "--n") == FIRST_N - 2
        with pytest.raises(ValueError):
            cli._indexable(2 * (FIRST_K + 1), "--k")
        with pytest.raises(ValueError):
            cli._indexable(FIRST_N, "--n")

    @pytest.mark.parametrize("k", (FIRST_K, 2**63, 99999999999999999999))
    @pytest.mark.parametrize("command", ("glue", "validate", "homology", "boundary", "construct"))
    def test_k(self, capsys, command, k):
        code, out = invoke(command, "--k", str(k))
        err = f"error: --k {k} is too large: W would have more vertices than an index can count\n"
        assert (code, out, capsys.readouterr().err) == (2, "", err)

    @pytest.mark.parametrize("n", (FIRST_N, 2**64, 99999999999999999998))
    @pytest.mark.parametrize("command", ("glue", "validate", "homology", "boundary", "construct", "demo"))
    def test_n(self, capsys, command, n):
        code, out = invoke(command, "--n", str(n))
        err = f"error: --n {n} is too large: W would have more vertices than an index can count\n"
        assert (code, out, capsys.readouterr().err) == (2, "", err)

    @pytest.mark.parametrize("hi", (FIRST_K, 2**63, 99999999999999999999))
    def test_k_range_hi(self, capsys, hi):
        code, out = invoke("glue", "--k-range", f"1:{hi}")
        err = f"error: --k-range 1:{hi} is too large: W would have more vertices than an index can count\n"
        assert (code, out, capsys.readouterr().err) == (2, "", err)

    def test_no_traceback_from_the_command_line(self):
        done = subprocess.run(
            [sys.executable, "-m", "cpbound", "glue", "--k", "99999999999999999999"],
            capture_output=True,
            text=True,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: --k 99999999999999999999 is too large") and "Traceback" not in done.stderr
