"""Value records: fields, defaults, equality, hashing, repr and read-only fields.

Every record of the library, and the oracles' ``CellGenerator`` and
``EdgeProvenance``, derives from ``cpbound.record.Record``.  Each row of ``RECORDS`` builds one record of each
type by keyword and names a second value for one field; the checks are the
behaviour of the frozen dataclasses the records replaced.  Importing the
command line loads no ``dataclasses``, ``inspect``, ``typing`` or ``pathlib``.
"""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cpbound import charfn, cobordism, polytope, zlinalg
from cpbound.charfn import (
    CharVector,
    OrientationRecord,
    SimplexNormalForm,
    TranslationReport,
    TranslationWitness,
    ValidationReport,
    VertexCheck,
)
from cpbound.cobordism import (
    CellStage,
    CellStructure,
    CheckResult,
    EulerCheck,
    GluingReport,
    HomologyTable,
)
from cpbound.polytope import (
    FacetLabel,
    FacetProvenance,
    LinearFunctional,
    Vertex,
    original_facet,
)
from cpbound.record import Record
from cpbound.zlinalg import Entries, IntMatrix, Permutation

import oracles
from oracles import CellGenerator, EdgeProvenance

SRC = Path(__file__).resolve().parent.parent / "src"

SWAP = IntMatrix(2, 2, (0, 1, 1, 0))
CELLS = CellStructure(4, ((1, 1), (4, 1)))
HOMOLOGY = HomologyTable(((0, 0), (1, 2)))
EULER = EulerCheck(2, 2)
WITNESS = TranslationWitness({"d0": "d1", "d1": "d0"}, SWAP)

# (record type, its fields by keyword in slot order, (field, another value))
RECORDS = [
    (
        IntMatrix,
        {"rows": 1, "cols": 2, "entries": Entries(2, (((0, 3), (1, -4)),))},
        ("entries", Entries(2, (((0, 3),),))),
    ),
    (Entries, {"cols": 2, "nonzero": (((0, 3), (1, -4)),)}, ("nonzero", (((0, 3), (1, 4)),))),
    (Permutation, {"images": (1, 0, 2)}, ("images", (0, 1, 2))),
    (FacetProvenance, {"kind": "cut", "index": None, "cut_face": ("d0", "d1")}, ("cut_face", ("d0", "d2"))),
    (FacetLabel, {"id": "d0", "provenance": original_facet(0)}, ("provenance", original_facet(1))),
    (EdgeProvenance, {"kind": "original", "ancestors": ("A0", "A1")}, ("kind", "cut")),
    (
        Vertex,
        {
            "id": "A0|d2",
            "mask": 0b101,
            "universe": ("P1", "P2", "d1"),
        },
        ("mask", 0b011),
    ),
    (oracles.FaceRef, {"facet_ids": frozenset({"d0"}), "vertex_ids": ("v0", "v1")}, ("vertex_ids", ("v0",))),
    (LinearFunctional, {"coefficients": (5, -2, 7)}, ("coefficients", (5, -2, 8))),
    (CharVector, {"length": 3, "nonzero": ((1, 1), (2, -1))}, ("nonzero", ((1, 1), (2, 1)))),
    (
        VertexCheck,
        {"vertex": "v0", "facets": ("d0", "d1"), "vectors": ((2, 0), (0, 1)), "ok": False, "reason": "r"},
        ("ok", True),
    ),
    (ValidationReport, {"ok": True, "checked_vertices": 16, "failures": ()}, ("checked_vertices", 15)),
    (TranslationWitness, {"phi": {"d0": "d1", "d1": "d0"}, "delta": SWAP}, ("phi", {"d0": "d0", "d1": "d1"})),
    (
        TranslationReport,
        {"ok": False, "phi_is_isomorphism": True, "vector_mismatches": (("d0", "d1"),)},
        ("vector_mismatches", ()),
    ),
    (
        SimplexNormalForm,
        {
            "basis_change": SWAP,
            "signs": (("d0", 1), ("d1", -1)),
            "normal_form": (("d0", ((0, 1),)),),
            "residual_facet": "d2",
            "det": -1,
        },
        ("residual_facet", "d1"),
    ),
    (OrientationRecord, {"sign_rho": -1, "det_delta": 1, "boundary_label": "CP"}, ("boundary_label", "conjugate-CP")),
    (CellGenerator, {"index": 2, "vertex": "A0|d3"}, ("index", 3)),
    (CellStructure, {"n": 4, "counts": CELLS.counts, "zero_cells": 1}, ("zero_cells", 0)),
    (HomologyTable, {"ranks": ((0, 0), (1, 2)), "paper_h0_discrepancy": True}, ("paper_h0_discrepancy", False)),
    (EulerCheck, {"cell_total": 8, "half_boundary_vertices": 8}, ("cell_total", 7)),
    (
        CellStage,
        {
            "structure": CELLS,
            "counts": {1: 1, 7: 1},
            "stable": True,
            "extra_error": None,
            "homology": HOMOLOGY,
            "euler": EULER,
        },
        ("stable", False),
    ),
    (CheckResult, {"name": "w-validity", "passed": True, "details": "16 vertices checked"}, ("passed", False)),
    (
        GluingReport,
        {
            "n": 4,
            "k": 1,
            "r1": Fraction(1, 5),
            "seed": 0,
            "checks": (CheckResult("w-validity", True, "ok"),),
            "components": (),
            "cell_counts": {1: 1, 7: 1},
            "homology": HOMOLOGY,
            "orientation": OrientationRecord(-1, 1, "conjugate-CP"),
            "boundary_label": "conjugate-CP",
            "witness": WITNESS,
            "passed": True,
        },
        ("seed", 1),
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def hashable(values):
    try:
        hash(values)
    except TypeError:
        return False
    return True


def test_every_record_type_is_in_the_table():
    # The oracles' generator and edge records are held to the library's record contract too.
    library = {
        value
        for module in (zlinalg, polytope, charfn, cobordism, oracles)
        for value in vars(module).values()
        if inspect.isclass(value) and issubclass(value, Record) and value is not Record
    }
    assert library == {cls for cls, _, _ in RECORDS}


@pytest.mark.parametrize("cls,fields,change", RECORDS, ids=IDS)
class TestRecord:
    def test_fields_in_slot_order(self, cls, fields, change):
        record = cls(**fields)
        assert cls.__slots__ == tuple(fields)
        assert cls(*fields.values()) == record
        assert all(getattr(record, name) is value for name, value in fields.items())
        assert not hasattr(record, "__dict__")

    def test_equality(self, cls, fields, change):
        record = cls(**fields)
        name, value = change
        assert record == cls(**fields) and not record != cls(**fields)
        assert record != cls(**{**fields, name: value})
        values = tuple(fields.values())
        assert record != values and values != record
        assert record != object()

    def test_hash(self, cls, fields, change):
        values = tuple(fields.values())
        if hashable(values):
            assert hash(cls(**fields)) == hash(cls(**fields)) == hash(values)
        else:
            with pytest.raises(TypeError, match="unhashable type"):
                hash(cls(**fields))

    def test_repr(self, cls, fields, change):
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({shown})"

    def test_fields_are_read_only(self, cls, fields, change):
        record = cls(**fields)
        name, value = change
        with pytest.raises(AttributeError, match=f"^{cls.__name__}.{name} is read-only$"):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) is fields[name]

    def test_copy_and_pickle(self, cls, fields, change):
        record = cls(**fields)
        assert copy.copy(record) == copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record


def test_reprs_are_the_dataclass_text():
    assert repr(CellGenerator(2, "A0|d3")) == "CellGenerator(index=2, vertex='A0|d3')"
    assert repr(CELLS) == "CellStructure(n=4, counts=((1, 1), (4, 1)), zero_cells=1)"
    assert repr(original_facet(3)) == "FacetProvenance(kind='original', index=3, cut_face=None)"
    assert repr(HOMOLOGY) == "HomologyTable(ranks=((0, 0), (1, 2)), paper_h0_discrepancy=True)"


@pytest.mark.parametrize(
    "build,fields",
    [
        (lambda: FacetProvenance("original", 2), {"index": 2, "cut_face": None}),
        (lambda: FacetProvenance("cut", cut_face=("d0",)), {"index": None, "cut_face": ("d0",)}),
        (lambda: EdgeProvenance("cut"), {"ancestors": None}),
        (lambda: CellStructure(4, ()), {"zero_cells": 1}),
        (lambda: HomologyTable(((0, 0),)), {"paper_h0_discrepancy": True}),
    ],
)
def test_defaults(build, fields):
    record = build()
    assert {name: getattr(record, name) for name in fields} == fields


def test_only_checking_and_per_vertex_records_define_a_constructor():
    own = {cls for cls, _, _ in RECORDS if "__init__" in vars(cls)}
    checking = {CharVector, IntMatrix, Permutation, FacetProvenance, TranslationWitness, CellStructure, HomologyTable}
    assert own == checking | {EdgeProvenance, Vertex}


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: CheckResult("w-validity", True), "CheckResult: field(s) missing: 'details'"),
        (lambda: CheckResult(details="ok"), "CheckResult: field(s) missing: 'name', 'passed'"),
        (lambda: CheckResult("w-validity", True, "ok", note=1), "CheckResult: field(s) unknown: 'note'"),
        (lambda: CheckResult("w-validity", True, "ok", name="w"), "CheckResult: field(s) given twice: 'name'"),
        (
            lambda: CheckResult("w-validity", True, "ok", False),
            "CheckResult takes the fields ('name', 'passed', 'details'), got 4 values",
        ),
        (lambda: EulerCheck(8, cell_total=8), "EulerCheck: field(s) given twice: 'cell_total'"),
        (lambda: LinearFunctional(), "LinearFunctional: field(s) missing: 'coefficients'"),
        (lambda: LinearFunctional((1,), (2,)), "LinearFunctional takes the fields ('coefficients',), got 2 values"),
    ],
)
def test_the_shared_constructor_names_a_wrong_field(build, message):
    with pytest.raises(TypeError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_the_shared_constructor_takes_fields_by_position_then_by_name():
    assert CheckResult("w-validity", details="ok", passed=True) == CheckResult("w-validity", True, "ok")
    assert FacetLabel(provenance=original_facet(0), id="d0") == FacetLabel("d0", original_facet(0))


def test_vertex_facet_ids_are_read_off_the_mask():
    v = Vertex("A0|d2", 0b1011, ("P1", "P2", "d0", "d1"))
    assert v.facet_ids == frozenset({"P1", "P2", "d1"})
    with pytest.raises(AttributeError, match="^Vertex.facet_ids is read-only$"):
        v.facet_ids = frozenset()


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: CharVector(2, ()), "characteristic vector must be nonzero"),
        (lambda: CharVector(3, ((1, -1), (2, 2))), "(0, -1, 2) is not canonical; use CharVector.canon"),
        (lambda: IntMatrix(0, 1, ()), "matrix needs at least one row and one column"),
        (lambda: IntMatrix(2, 2, (1, 2, 3)), "2x2 matrix needs 4 entries, got 3"),
        (lambda: Permutation((0, 2)), "not a bijection of 0..1: (0, 2)"),
        (lambda: FacetProvenance("root"), "unknown facet provenance kind 'root'"),
        (lambda: FacetProvenance("original"), "original facet provenance needs an index"),
        (lambda: FacetProvenance("cut", cut_face=()), "cut facet provenance needs the defining facet ids"),
        (lambda: EdgeProvenance("root"), "unknown edge provenance kind 'root'"),
        (lambda: EdgeProvenance("original"), "original edge provenance needs its root endpoints"),
        (lambda: TranslationWitness({}, IntMatrix(1, 2, (1, 0))), "delta must be square"),
        (lambda: TranslationWitness({}, IntMatrix(2, 2, (2, 0, 0, 1))), "delta must have determinant +-1"),
        (lambda: TranslationWitness({"d0": "d1", "d1": "d1"}, SWAP), "phi is not injective"),
    ],
)
def test_argument_checks(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # -S keeps site-packages out, so every module loaded is the standard library's or cpbound's.
    # Nor typing or pathlib: annotations read collections.abc, and --input is read with open().
    unwanted = "{'dataclasses', 'inspect', 'typing', 'pathlib'}"
    probe = f"import sys, cpbound.cli; print(sorted({unwanted} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
