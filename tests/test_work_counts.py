"""How much work one certificate does, counted by wrapping cpbound's functions.

Every artifact is computed once per manifold: one validation of W per
request, one cell structure and one functional draw per seed, the cells
read off the functional's entries without a vertex or its label, one
integer elimination and no
determinant for all the full-count vertex vector sets (anchored on the
n - 1 unit vectors, with d = 1 and no row updated; each set judged by one
2 x 2 minor of the Gale vectors of its missed root pair {i, m}, one per
pair of Gale vectors, 3 at every k, with no elimination of its own), no
coordinate made for a built W by ``glue_report``, ``cell_stage``,
``validate`` or ``boundary_h_vectors``, no validation of a boundary
component (each reads W's report), one
determinant per request (none for the orientation record or the P3 basis
change), three eliminations per request, each of the core that the peel of
unit vectors leaves (``zlinalg``'s module docstring): no row of W's M^T (its
anchor is all peeled), no row of delta' (a signed permutation) and at most 2
rows of P3's basis (once its unit columns are peeled), no Smith normal
form on a valid datum, no determinant to solve a unimodular system, no
inverse, no dense matrix product in a ``glue`` request and no dense read of
any matrix in ``glue_report`` (delta' and P3's basis M are built, solved and
applied by their nonzero entries, and M is the one matrix its normal form
makes: neither M^-1 nor the basis change D M^-1 is built), no model polytope
built to recognize the boundary, one functional for the three boundary
components, no label list, no dense vector and no pass over W's labels in
``build_W`` and ``glue_report`` (``validate`` and the boundary checks read the
blocks F x R, and the vectors are read by their nonzero entries), column
lookups in ``fraction_free_reduce`` bounded by its rows' entries (a column
index, not a test of every row), one
boundary extraction per ``demo``, no gluing work in ``homology`` beyond
validating a loaded datum, no ``Vertex`` record and no ``SimplePolytope`` in
``glue_report`` on a built W or in a ``glue``, ``homology``, ``validate`` or
``boundary`` request on one (W is read through its blocks), one polytope
built for the truncated simplex when its JSON is written (``construct``)
and only the loader's one for a loaded certificate, no edge derivation or
integer coordinate table in any request (``boundary`` writes its h-vectors
from the cut faces and draws one functional per component), no
string-ended edge tuple in a request, no navigation table in any polytope,
no ``Fraction`` functional evaluation, and nothing kept from one request to
the next.
"""

import functools
import io
import json
import random
import sys
import types
from collections import Counter

import pytest

from cpbound import charfn, cobordism, polytope, zlinalg
from cpbound.cli import run
from cpbound.cobordism import build_W, glue_report, wmanifold_to_json

import oracles
from oracles import random_unimodular


def _patch_everywhere(monkeypatch, module, name, make_wrapper):
    """Replace a cpbound function by ``make_wrapper(original)`` in every module that imported it by name."""
    original = getattr(module, name)
    wrapper = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "cpbound" or mod_name.startswith("cpbound."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)


@pytest.fixture
def calls(monkeypatch):
    """Counter of calls, and a function that starts counting one cpbound function."""
    counts: Counter[str] = Counter()

    def count(module, name):
        def make_wrapper(original):
            def counting(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return counting

        _patch_everywhere(monkeypatch, module, name, make_wrapper)

    return counts, count


@pytest.fixture
def validated(monkeypatch):
    """The pairs passed to ``charfn.validate``, in call order."""
    pairs = []

    def make_wrapper(original):
        def recording(pair, *args, **kwargs):
            pairs.append(pair)
            return original(pair, *args, **kwargs)

        return recording

    _patch_everywhere(monkeypatch, charfn, "validate", make_wrapper)
    return pairs


@pytest.mark.parametrize("k,extra", [(1, 0), (2, 2), (3, 4)])
def test_glue_report_builds_one_cell_structure_per_seed(calls, k, extra):
    counts, count = calls
    W = build_W(k)
    count(cobordism, "cell_structure")
    assert glue_report(W, 0, extra_seeds=extra).passed
    assert counts["cell_structure"] == 1 + extra


@pytest.mark.parametrize("seeds", (1, 3, 5))
def test_homology_builds_one_cell_structure_per_seed(calls, seeds):
    counts, count = calls
    count(cobordism, "cell_structure")
    code = run(["homology", "--k", "2", "--seeds", str(seeds), "--format", "json"], io.StringIO())
    assert code == 0
    assert counts["cell_structure"] == seeds


class VertexCount:
    """Stands in for ``W.labels``: it has a length and nothing to iterate or index."""

    def __init__(self, count):
        self.count = count

    def __len__(self):
        return self.count


class CountingLabels(tuple):
    """W's labels, counting the passes made over them."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("k", (1, 2, 5, 12, 64))
def test_glue_report_walks_the_labels_once(monkeypatch, k):
    """On a built W the labels are walked no time at all, and not even made: ``validate`` reads its class pairs
    off the blocks F x R, as the boundary components, their types and translations, the Euler count and the
    h-vectors do.  Reading ``W.labels`` makes them then, once, and walks them not at all."""
    made = []

    def counting(n):
        made.append(CountingLabels(polytope.truncation_labels(n)))
        return made[-1]

    monkeypatch.setattr(cobordism, "truncation_labels", counting)
    W = build_W(k)
    assert glue_report(W, 0, extra_seeds=2).passed
    assert cobordism.boundary_h_vectors(W, 0)
    assert made == []
    labels = W.labels
    assert made == [labels] and W.labels is labels and labels.passes == 0


class ProbedRow(dict):
    """A sparse row of ``fraction_free_reduce`` that counts the lookups of a column in it, ``probes``."""

    probes = Counter()

    def __contains__(self, column):
        self.probes["row"] += 1
        return super().__contains__(column)

    def __getitem__(self, column):
        self.probes["row"] += 1
        return super().__getitem__(column)

    def get(self, column, default=None):
        self.probes["row"] += 1
        return super().get(column, default)


@pytest.fixture
def glue_work(monkeypatch):
    """After ``build_W`` and ``glue_report`` under it: the calls of ``truncation_labels``, the dense reads of a
    ``CharVector`` and, per ``fraction_free_reduce``, its rows, their nonzero entries and the column lookups in
    them."""
    work = Counter()
    reductions = []
    dense = charfn.CharVector.__dict__["entries"]

    def counting_dense(v):
        work["densified"] += 1
        return dense.__get__(v)

    def labels_wrapper(original):
        def counting(n):
            work["truncation_labels"] += 1
            return original(n)

        return counting

    def reduce_wrapper(original):
        def probed(a):
            ProbedRow.probes.clear()
            a[:] = [ProbedRow(row) for row in a]
            entries = sum(map(len, a))
            result = original(a)
            reductions.append((len(a), entries, ProbedRow.probes["row"]))
            return result

        return probed

    monkeypatch.setattr(charfn.CharVector, "entries", property(counting_dense))
    _patch_everywhere(monkeypatch, polytope, "truncation_labels", labels_wrapper)
    _patch_everywhere(monkeypatch, zlinalg, "fraction_free_reduce", reduce_wrapper)
    return work, reductions


@pytest.mark.parametrize("k", (1, 2, 5, 12, 64))
def test_glue_on_a_built_w_makes_no_labels_and_no_dense_vector(glue_work, k):
    """``build_W`` and ``glue_report`` call ``truncation_labels`` no time and read no vector densely: the
    certificate, its ``sparsest_first`` counts, delta' and P3's normal form read the nonzero entries."""
    work, _ = glue_work
    assert glue_report(build_W(k), 0, extra_seeds=2).passed
    assert work == {}


@pytest.mark.parametrize("k", (1, 2, 5, 12, 64))
def test_eliminations_on_a_built_w_look_up_columns_by_their_entries(glue_work, k):
    """``fraction_free_reduce`` finds a pivot column's rows through its column index: on the cores that the peels
    leave of W's M^T, of delta' and of P3's basis it looks up no more columns in rows than the rows hold entries,
    not one per row for every pivot.  The first two cores have no row."""
    _, reductions = glue_work
    assert glue_report(build_W(k), 0, extra_seeds=2).passed
    (w, _, _), (delta, _, _), (p3, _, _) = reductions
    assert w == delta == 0 and p3 <= 2
    assert all(probes <= entries for _, entries, probes in reductions)


@pytest.mark.parametrize("k", (1, 4, 10))
def test_cell_structure_reads_no_vertex(k):
    W = build_W(k)
    bare = types.SimpleNamespace(n=W.n, r1=W.r1, labels=VertexCount(len(W.labels)))
    for seed in range(4):
        assert cobordism.cell_structure(bare, seed) == cobordism.cell_structure(W, seed)
        assert cobordism.boundary_h_vectors(bare, seed) == cobordism.boundary_h_vectors(W, seed)


@pytest.mark.parametrize("k", (1, 2, 3, 4, 8))
def test_valid_w_certifies_each_vector_set_once(calls, reductions, k):
    counts, count = calls
    count(zlinalg, "determinant")
    count(zlinalg, "smith_normal_form")
    count(charfn, "_gale_vectors")
    for _ in range(2):  # nothing is remembered across requests
        counts.clear()
        reductions.clear()
        assert glue_report(build_W(k), 0, extra_seeds=2).passed
        # W's one set of Gale vectors serves the components through W.report
        # and needs no determinant; the one is the witness check of delta'.
        # Each of the three peels its unit vectors and reduces the rest: W's
        # M^T and delta' leave a core of no row, P3's basis one of at most 2,
        # and its solve gives its determinant too; det delta' for the
        # orientation record is the sign of the reversal delta' permutes by.
        assert counts == {"_gale_vectors": 1, "determinant": 1}
        w, delta, p3 = reductions
        assert w == delta == 0 and p3 <= 2


@pytest.mark.parametrize("k", (1, 2, 3, 8))
def test_vertex_sets_of_w_run_no_elimination(calls, k):
    """W and its components miss at most two assigned rows per vertex: after the
    one peel and reduction of M^T per pair, every vertex set is a minor of size <= 2."""
    counts, count = calls
    count(zlinalg, "fraction_free_reduce")
    W = build_W(k)
    assert counts == {"fraction_free_reduce": 1}
    counts.clear()
    assert all(component.report.ok for component in cobordism.boundary_components(W))
    assert counts == {}  # a component's report is W's on its vertices
    for component in oracles.mask_components(W):
        counts.clear()
        assert oracles.mask_validate(component).ok
        assert counts == {"fraction_free_reduce": 1}


@pytest.mark.parametrize("k", (1, 2, 5, 12, 64))
def test_w_memo_holds_one_key_per_missed_root_pair(monkeypatch, k):
    """Vertex (i, m) is judged by the Gale vectors of the rows d_i, d_m, and a pair of Gale vectors is judged
    once: W's are (1, 0), (0, 1) and (1, 1), so 3 minors judge the n(n+4)/2 vertices at every k."""
    judged = []
    minor = charfn._gale_minor

    def recording(g, h):
        judged.append((g, h))
        return minor(g, h)

    monkeypatch.setattr(charfn, "_gale_minor", recording)
    W = build_W(k)
    n = W.n
    assert W.report.ok and W.report.checked_vertices == len(W.labels) == n * (n + 4) // 2
    assert len(judged) == len(set(judged)) == 3
    assert set(judged) == {((0, 1), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1))}


@pytest.fixture
def reductions(monkeypatch):
    """The number of rows of each matrix passed to ``zlinalg.fraction_free_reduce``, in call order."""
    sizes = []

    def make_wrapper(original):
        def recording(a):
            sizes.append(len(a))
            return original(a)

        return recording

    _patch_everywhere(monkeypatch, zlinalg, "fraction_free_reduce", make_wrapper)
    return sizes


@pytest.mark.parametrize("k", (1, 2, 5, 12, 64))
def test_p3_normal_form_eliminates_a_core_of_at_most_two_rows(reductions, k):
    """P3's basis has n - 3 or n - 2 unit columns at distinct rows: ``solve_unimodular`` peels them and
    eliminates what is left, the two dense eta vectors' columns on the rows no unit column took, or fewer."""
    P3 = cobordism.boundary_components(build_W(k))[2]
    reductions.clear()
    form = charfn.normalize_simplex_pair(P3)
    assert zlinalg.dense(P3.torus_rank, form.residual_image) == (1,) * P3.torus_rank
    assert len(reductions) == 1 and reductions[0] <= 2


@pytest.mark.parametrize("k", (1, 2, 5, 12, 64))
def test_p3_normal_form_makes_only_m(monkeypatch, calls, k):
    """Inside ``normalize_simplex_pair`` ``glue_report`` makes one matrix, P3's basis M, and solves M u = v for
    the residual's v: no inverse M^-1 and no basis change D B; on a built W no Smith normal form and no
    direct-summand test runs at all."""
    counts, count = calls
    count(zlinalg, "is_direct_summand")
    count(zlinalg, "smith_normal_form")
    made, inside = [], []
    init = zlinalg.IntMatrix.__init__

    def recording(m, *args, **kwargs):
        init(m, *args, **kwargs)
        if inside:
            made.append((m.rows, m.cols))

    def make_wrapper(original):
        def flagged(*args, **kwargs):
            inside.append(True)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()

        return flagged

    monkeypatch.setattr(zlinalg.IntMatrix, "__init__", recording)
    _patch_everywhere(monkeypatch, charfn, "normalize_simplex_pair", make_wrapper)
    W = build_W(k)
    assert glue_report(W, 0).passed
    assert made == [(W.n - 1, W.n - 1)]
    assert counts == {}


@pytest.mark.parametrize("k", (1, 2, 5, 12, 64))
def test_glue_peels_w_and_inverts_no_matrix(reductions, calls, k):
    """W's Gale step peels all n - 1 anchor rows, the unit eta vectors, and reduces a core of 0 rows, as the
    witness check of delta' does; P3's normal form reduces a core of at most 2 rows and builds no inverse."""
    counts, count = calls
    count(zlinalg, "inverse_unimodular")
    W = build_W(k)
    assert reductions == [0]
    assert glue_report(W, 0).passed
    w, delta, p3 = reductions
    assert w == delta == 0 and p3 <= 2
    assert counts == {}


@pytest.mark.parametrize("k", (1, 2, 5, 12, 64))
def test_delta_determinant_check_runs_no_elimination(reductions, k):
    """delta' is a signed permutation: its rows are all peeled, and the core left to eliminate has no row."""
    n = 2 * (k + 1)
    delta = charfn.delta_matrix(n)
    witness = charfn.TranslationWitness(charfn.rho_facet_bijection(n), delta)
    assert zlinalg.determinant(witness.delta) == (-1 if n % 4 == 0 else 1)
    assert reductions == [0, 0]  # the witness's check, then this call


@pytest.mark.parametrize("k", (1, 2, 5, 12, 64))
def test_glue_report_reads_no_matrix_densely(monkeypatch, k):
    """delta' and P3's basis M are built, solved and applied by their nonzero entries."""
    dense_reads = []
    row = zlinalg.Entries.row

    def counting(entries, i):
        dense_reads.append(i)
        return row(entries, i)

    W = build_W(k)
    monkeypatch.setattr(zlinalg.Entries, "row", counting)
    assert glue_report(W, 0).passed
    assert dense_reads == []


@pytest.mark.parametrize("k", (1, 2, 5, 12))
def test_w_certificate_anchors_on_the_unit_vectors(monkeypatch, k):
    """``validate`` hands ``_gale_vectors`` the rows of M sparsest first, and its peel takes the n - 1 unit eta
    vectors, one at each place, as the anchor, with d = 1: the reduction of M^T is given no row at all."""
    made, peels, reduced = [], [], []
    gale_vectors, peel, reduce = charfn._gale_vectors, charfn._peeled_elimination, zlinalg.fraction_free_reduce

    def recording(rows, rank):
        made.append(([zlinalg.dense(rank, row) for row in rows], gale_vectors(rows, rank)))  # each row's entries
        return made[-1][1]

    def peeling(rank, vectors):
        peels.append(peel(rank, vectors))
        return peels[-1]

    def reducing(a):
        reduced.append(len(a))
        return reduce(a)

    monkeypatch.setattr(charfn, "_gale_vectors", recording)
    monkeypatch.setattr(charfn, "_peeled_elimination", peeling)
    monkeypatch.setattr(zlinalg, "fraction_free_reduce", reducing)
    W = build_W(k)
    n = W.n
    assert W.report.ok
    ((rows, (_, d)),) = made
    ((anchor, _, det, coordinates),) = peels
    assert d == det == 1 and reduced == [0]
    units = {tuple(int(p == q) for q in range(n - 1)) for p in range(n - 1)}
    assert units <= {v.entries for v in charfn.eta_standard(n).values()}
    assert {rows[j] for j in anchor} == units and sorted(coordinates) == [n - 1, n]
    assert sorted(anchor) == list(range(n - 1))  # sparsest first: the unit rows lead


@pytest.mark.parametrize("k", (1, 2, 5, 10))
def test_built_w_makes_no_coordinates(monkeypatch, k):
    """A built truncated simplex makes its coordinates only when they are read, and these requests read none."""

    def refuse(source, P):
        raise AssertionError("a coordinate was made")

    monkeypatch.setattr(polytope._ClosedForm, "__call__", refuse)
    W = build_W(k)
    assert glue_report(W, 0, extra_seeds=2).passed
    assert cobordism.cell_stage(W, 3, extra_seeds=2).euler.ok
    assert charfn.validate(W.pair, lambda: W.labels).ok
    assert cobordism.boundary_h_vectors(W, 1)
    assert W.pair.polytope.has_coords
    with pytest.raises(AssertionError, match="^a coordinate was made$"):
        W.pair.polytope.coords()
    with pytest.raises(AssertionError, match="^a coordinate was made$"):
        oracles.mask_components(W)[0].polytope.coords()


def test_glue_request_runs_no_dense_product(calls):
    counts, count = calls
    count(zlinalg, "apply_matrix")
    assert run(["glue", "--k", "3"], io.StringIO()) == 0
    # The dense product serves ``demo``'s printout and the tests only; ``matmul`` is the tests' own.
    assert counts == {}


@pytest.mark.parametrize("k", (1, 3, 5))
def test_glue_request_validates_w_once(validated, k):
    W = build_W(k)
    assert glue_report(W, 0, extra_seeds=1).passed
    assert sum(pair is W.pair for pair in validated) == 1  # in build_W; glue_report reads W.report


@pytest.mark.parametrize("k", (1, 3, 5))
def test_glue_request_validates_each_component_once(validated, k):
    W = build_W(k)
    report = glue_report(W, 0, extra_seeds=1)
    assert report.passed
    # Each component's one validation is W's report on its vertices, with no
    # call of its own; P3's also serves its normal form.
    assert validated == [W.pair]
    components = report.components
    assert [c.report.checked_vertices for c in components] == [len(c.face) * len(c.rest) for c in components]
    assert sum(c.report.checked_vertices for c in report.components) == W.report.checked_vertices


def test_validate_command_validates_w_once(validated):
    assert run(["validate", "--k", "3"], io.StringIO()) == 0
    assert len(validated) == 1
    assert validated[0].boundary_facet_ids == ("P1", "P2", "P3")


def test_inverse_unimodular_computes_no_determinant(calls):
    counts, count = calls
    count(zlinalg, "determinant")
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 9)
        m = random_unimodular(rng, n)
        inverse, det = zlinalg.inverse_unimodular(m)
        assert oracles.matmul(m, inverse) == oracles.identity(n)
        assert det == oracles.bareiss_det(oracles.matrix_rows(m))
    assert counts == {}


@pytest.mark.parametrize("k", (1, 2, 3))
def test_boundary_recognition_builds_no_model_polytopes(calls, k):
    counts, count = calls
    W = build_W(k)
    count(polytope, "product")
    count(polytope, "combinatorially_isomorphic")
    assert glue_report(W, 0, extra_seeds=1).passed
    assert counts == {}


@pytest.mark.parametrize("n", (4, 6, 12))
def test_truncated_simplex_builds_one_polytope(monkeypatch, n):
    built = []
    init = polytope.SimplePolytope.__init__

    def counting_init(P, *args, **kwargs):
        built.append(P)
        init(P, *args, **kwargs)

    monkeypatch.setattr(polytope.SimplePolytope, "__init__", counting_init)
    P = polytope.truncated_simplex(n)
    assert built == [P]


@pytest.mark.parametrize("k", (1, 3))
def test_glue_request_derives_no_edges(calls, k):
    counts, count = calls
    count(polytope, "_derive_edges")
    assert glue_report(build_W(k), 0, extra_seeds=1).passed
    assert counts == {}  # the cells are counted in closed form; nothing derives a graph


@pytest.fixture
def integer_tables(monkeypatch):
    """The polytopes whose ``integer_coords`` table gets built."""
    built = []
    build = polytope.SimplePolytope.__dict__["integer_coords"].func

    def counting_build(P):
        built.append(P)
        return build(P)

    table = functools.cached_property(counting_build)
    table.__set_name__(polytope.SimplePolytope, "integer_coords")
    monkeypatch.setattr(polytope.SimplePolytope, "integer_coords", table)
    return built


@pytest.mark.parametrize("source", ("built", "input"))
@pytest.mark.parametrize(
    "argv",
    [
        ("glue", "--seeds", "3", "--format", "json"),
        ("homology", "--seeds", "3", "--format", "json"),
        ("validate", "--format", "json"),
    ],
    ids=("glue", "homology", "validate"),
)
def test_requests_derive_no_edges_and_build_no_integer_rows(calls, integer_tables, tmp_path, argv, source):
    counts, count = calls
    path = tmp_path / "w.json"
    path.write_text(json.dumps(wmanifold_to_json(build_W(3))))
    count(polytope, "_derive_edges")
    given = ("--k", "3") if source == "built" else ("--input", str(path))
    assert run([*argv, *given], io.StringIO()) == 0
    assert counts == {}
    assert integer_tables == []


@pytest.mark.parametrize("source", ("built", "input"))
def test_boundary_derives_edges_once_per_w(calls, tmp_path, source):
    counts, count = calls
    path = tmp_path / "w.json"
    path.write_text(json.dumps(wmanifold_to_json(build_W(2))))
    count(polytope, "_derive_edges")
    given = ("--n", "6") if source == "built" else ("--input", str(path))
    assert run(["boundary", *given, "--format", "json"], io.StringIO()) == 0
    assert counts == {}  # the h-vectors are written from the cut faces; no polytope keeps a graph


@pytest.mark.parametrize("argv", [("construct", "--k", "3"), ("demo", "--n", "8")])
def test_construct_and_demo_derive_no_edges_and_build_no_integer_rows(calls, integer_tables, argv):
    counts, count = calls
    count(polytope, "_derive_edges")
    assert run(list(argv), io.StringIO()) == 0
    assert counts == {}
    assert integer_tables == []


@pytest.fixture
def edge_tuples(monkeypatch):
    """After a run: the string-ended edge records made and the built polytopes with ``edges``."""
    made, built = [], []
    make_edge = oracles.Edge.__init__
    build = polytope.SimplePolytope.__init__

    def counting_edge(self, *args, **kwargs):
        made.append(args)
        make_edge(self, *args, **kwargs)

    def recording_build(self, *args, **kwargs):
        built.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(oracles.Edge, "__init__", counting_edge)
    monkeypatch.setattr(polytope.SimplePolytope, "__init__", recording_build)

    def found():
        return made + [P for P in built if hasattr(P, "edges")]

    return found


@pytest.mark.parametrize(
    "argv",
    [
        ("glue", "--k-range", "1:4", "--seeds", "3", "--format", "json"),
        ("homology", "--k", "2", "--seeds", "3"),
        ("boundary", "--n", "6", "--format", "json"),
    ],
)
def test_commands_build_no_edge_tuples(edge_tuples, argv):
    assert run(list(argv), io.StringIO()) == 0
    assert edge_tuples() == []


def test_loaded_glue_builds_no_edge_tuples(edge_tuples, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(wmanifold_to_json(build_W(2))))
    assert run(["glue", "--input", str(path), "--format", "json"], io.StringIO()) == 0
    assert edge_tuples() == []


def test_building_polytopes_calls_no_neighbors():
    # The dropped-facet navigation table and the string-ended edge tuples are
    # test helpers, ``oracles.navigation`` and ``oracles.edges_of``.
    W = build_W(3)
    report = glue_report(W, 0, extra_seeds=1)
    loaded = polytope.polytope_from_json(polytope.polytope_to_json(W.pair.polytope))
    built = [W.pair.polytope, loaded, *(c.polytope for c in oracles.mask_components(W))]
    assert report.passed
    assert not hasattr(polytope.SimplePolytope, "neighbors")
    assert not any(hasattr(P, "_nav") for P in built)
    assert not hasattr(polytope.SimplePolytope, "edges") and not hasattr(polytope, "Edge")


def test_boundary_draws_one_functional(calls):
    counts, count = calls
    count(polytope, "functional_draws")
    count(polytope, "separating_functional")
    assert run(["boundary", "--n", "6", "--format", "json"], io.StringIO()) == 0
    assert counts == {"functional_draws": 1}  # the one draw of cell_structure serves the three components


def test_each_seed_draws_once(calls):
    counts, count = calls
    count(polytope, "functional_draws")
    count(cobordism, "cell_structure")
    assert run(["homology", "--k", "2", "--seeds", "5"], io.StringIO()) == 0
    assert counts == {"functional_draws": 5, "cell_structure": 5}  # one draw per seed, the given one and 4 extra


def test_demo_extracts_the_boundary_once(calls):
    counts, count = calls
    count(cobordism, "boundary_components")
    count(charfn, "orientation_signs")
    assert run(["demo", "--n", "4"], io.StringIO()) == 0
    assert counts == {"boundary_components": 1, "orientation_signs": 1}


def test_homology_does_no_gluing_work(calls, tmp_path):
    counts, count = calls
    path = tmp_path / "w.json"
    path.write_text(json.dumps(wmanifold_to_json(build_W(2))))
    for name in ("validate", "boundary_components", "identify_simplex_or_product", "cell_structure"):
        count(cobordism, name)
    code = run(["homology", "--input", str(path), "--seeds", "3", "--format", "json"], io.StringIO())
    assert code == 0
    assert counts == {"validate": 1, "cell_structure": 3}  # a loaded datum is checked, not trusted


def test_homology_validates_only_while_building(calls):
    counts, count = calls
    for name in ("validate", "boundary_components", "identify_simplex_or_product"):
        count(cobordism, name)
    assert run(["homology", "--k", "2", "--seeds", "3", "--format", "json"], io.StringIO()) == 0
    assert counts == {"validate": 1}  # build_W certifies the datum it builds


@pytest.mark.parametrize(
    "argv,polytopes",
    [
        (("homology", "--k", "2", "--seeds", "5", "--format", "json"), 0),  # closed form on W
        (("boundary", "--n", "6", "--format", "json"), 0),  # h-vectors from the cut faces
    ],
)
def test_functionals_run_on_one_integer_table_per_polytope(monkeypatch, integer_tables, argv, polytopes):
    built, fraction_evals = integer_tables, []
    evaluate = polytope.LinearFunctional.__call__

    def counting_call(zeta, point):
        fraction_evals.append(point)
        return evaluate(zeta, point)

    monkeypatch.setattr(polytope.LinearFunctional, "__call__", counting_call)
    assert run(list(argv), io.StringIO()) == 0
    assert fraction_evals == []
    assert len(built) == len({id(P) for P in built}) == polytopes


@pytest.fixture
def records(monkeypatch):
    """Counter of the ``Vertex`` records and ``SimplePolytope``s made."""
    made: Counter[str] = Counter()
    vertex, polytope_init = polytope.Vertex.__init__, polytope.SimplePolytope.__init__

    def counting_vertex(v, *args, **kwargs):
        made["Vertex"] += 1
        vertex(v, *args, **kwargs)

    def counting_polytope(P, *args, **kwargs):
        made["SimplePolytope"] += 1
        polytope_init(P, *args, **kwargs)

    monkeypatch.setattr(polytope.Vertex, "__init__", counting_vertex)
    monkeypatch.setattr(polytope.SimplePolytope, "__init__", counting_polytope)
    return made


@pytest.mark.parametrize("k", (1, 3, 12))
def test_glue_report_on_a_built_w_makes_no_vertex_or_polytope(records, k):
    assert glue_report(build_W(k), 0, extra_seeds=2).passed
    assert records == {}


@pytest.mark.parametrize(
    "argv",
    [
        ("glue", "--k", "3", "--seeds", "2"),
        ("glue", "--k-range", "1:3", "--format", "json"),
        ("homology", "--k", "3", "--seeds", "3", "--format", "json"),
        ("validate", "--k", "3", "--format", "json"),
        ("boundary", "--k", "3"),
        ("boundary", "--n", "8", "--format", "json"),
        ("construct", "--k", "3", "--format", "text"),
        ("demo", "--n", "8"),
    ],
)
def test_requests_on_a_built_w_make_no_vertex_or_polytope(records, argv):
    assert run(list(argv), io.StringIO()) == 0
    assert records == {}


def test_construct_builds_one_polytope_for_its_json(records):
    assert run(["construct", "--k", "3"], io.StringIO()) == 0
    assert records == {"SimplePolytope": 1, "Vertex": 8 * 12 // 2}


@pytest.mark.parametrize("command", ("glue", "homology", "validate", "boundary"))
def test_a_loaded_certificate_makes_only_the_loaders_polytope(records, tmp_path, command):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(wmanifold_to_json(build_W(3))))
    records.clear()
    assert run([command, "--input", str(path)], io.StringIO()) == 0
    assert records == {"SimplePolytope": 1, "Vertex": 8 * 12 // 2}
