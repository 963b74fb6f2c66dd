"""Incidence masks against the per-vertex frozensets the library built before it kept masks only,
W's labels and blocks against the masks the library read W's boundary through before, and the blocks
against the label walks that followed.

Covers k = 1..8, built and loaded from JSON: W, its three boundary faces and
products of simplices.  Each vertex's derived ``facet_ids`` must equal the
oracle's set, ``polytope_to_json`` must give the oracle's bytes, and every
validation report, the label path's and the mask path's (``oracles.mask_validate``,
with one verdict memo shared by W and its faces and with a fresh memo per
face), must equal ``oracles.per_vertex_validate``, reasons included.  Over
k <= 12, several r1 and seeds, built, loaded and mutated, the label path's
validation, boundary components, types, translation and JSON report must be
the mask path's (``oracles.mask_glue_report`` and its parts), the boundary
components read off the blocks F x R must be the label walks'
(``oracles.label_components`` and its recognizer and translation check), and
on the mutated corpus ``validate`` judges each distinct class of full-count
key, its pair of Gale vectors, once.  Its one 2 x 2 Gale minor per vertex
must decide as ``oracles.FullCountCertificate`` does, on random tables and
on built, loaded, g eta and mutated W.
"""

import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpbound import charfn
from cpbound.charfn import (
    CharVector,
    TranslationWitness,
    delta_matrix,
    eta_facet_assignment,
    normalize_simplex_pair,
    rho_facet_bijection,
    validate,
    verify_translation,
)
from cpbound.cobordism import (
    BOUNDARY_FACETS,
    WManifold,
    boundary_components,
    build_W,
    cell_stage,
    glue_report,
    glue_report_to_json,
    identify_simplex_or_product,
    wmanifold_from_json,
    wmanifold_to_json,
)
from cpbound.polytope import (
    FacetLabel,
    SimplePolytope,
    Vertex,
    decode_truncated_simplex,
    face_as_polytope,
    original_facet,
    polytope_from_json,
    polytope_to_json,
    product,
    truncated_simplex,
    truncation_labels,
)
from cpbound.zlinalg import apply_matrix

from oracles import (
    FractionFullCountCertificate,
    FullCountCertificate,
    Verdicts,
    attach,
    bareiss_det,
    dense_normalize_simplex_pair,
    frozenset_face_sets,
    frozenset_polytope_to_json,
    frozenset_product_sets,
    frozenset_simplex_sets,
    frozenset_truncated_simplex_sets,
    mask_components,
    mask_glue_report,
    mask_identify_simplex_or_product,
    mask_validate,
    mask_verify_translation,
    identity,
    label_components,
    label_identify_simplex_or_product,
    label_verify_translation,
    matrix_rows,
    nonzero_pairs,
    per_vertex_validate,
    random_unimodular,
    renumbering,
    simplex,
)

KS = range(1, 9)


def dumped(data):
    return json.dumps(data, sort_keys=True)


def assert_masks_match(P, sets):
    """P's derived facet sets are the oracle's, and its JSON has the oracle's bytes."""
    assert {v.id: v.facet_ids for v in P.vertices} == sets
    assert [v.mask for v in P.vertices] == list(P.incidence)
    assert all(v.universe is P.facet_ids for v in P.vertices)
    assert dumped(polytope_to_json(P)) == dumped(frozenset_polytope_to_json(P, sets))


def loaded_sets(data):
    """The oracle's facet sets of a polytope loaded from ``data``, keyed by the loaded ids."""
    width = len(str(len(data["vertices"])))
    return {f"v{i:0{width}d}": frozenset(ids) for i, ids in enumerate(data["vertices"])}


def mutated_W(k, rng):
    """W with one facet's vector replaced by 2*e_j or 3*e_j."""
    n = 2 * (k + 1)
    table = {f: v.entries for f, v in eta_facet_assignment(n).items()}
    vec = [0] * (n - 1)
    vec[rng.randrange(n - 1)] = rng.choice((2, 3))
    table[rng.choice(sorted(table))] = tuple(vec)
    return WManifold(attach(truncated_simplex(n), table, n - 1), n, Fraction(1, 5))


def assert_reports_match_oracle(W):
    """W and its components, on the label path and on the mask path with one memo and each with a
    fresh one, report what the per-vertex oracle does."""
    assert W.report == per_vertex_validate(W.pair)
    verdicts = Verdicts(W.pair.polytope.facet_ids)
    assert mask_validate(W.pair, verdicts) == W.report
    components = mask_components(W)
    for view, component in zip(boundary_components(W), components):
        expected = per_vertex_validate(component)
        assert view.report == expected
        assert mask_validate(component) == expected
        assert mask_validate(component, verdicts) == expected
    return W.report, components


class TestFacetSets:
    @pytest.mark.parametrize("k", KS)
    def test_built_w_and_its_faces(self, k):
        n = 2 * (k + 1)
        P = truncated_simplex(n)
        sets = frozenset_truncated_simplex_sets(n)
        assert_masks_match(P, sets)
        for facet in BOUNDARY_FACETS:
            assert_masks_match(face_as_polytope(P, [facet]), frozenset_face_sets(sets, facet))

    @pytest.mark.parametrize("k", KS)
    def test_loaded_w_and_its_faces(self, k):
        n = 2 * (k + 1)
        data = frozenset_polytope_to_json(truncated_simplex(n), frozenset_truncated_simplex_sets(n))
        blob = json.loads(json.dumps(wmanifold_to_json(build_W(k))))
        assert blob["pair"]["polytope"] == json.loads(json.dumps(data))
        P = wmanifold_from_json(blob).pair.polytope
        sets = loaded_sets(data)
        assert_masks_match(P, sets)
        for facet in BOUNDARY_FACETS:
            assert_masks_match(face_as_polytope(P, [facet]), frozenset_face_sets(sets, facet))

    @pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1)])
    def test_products_of_simplices(self, dims):
        a, b = dims
        P = product(simplex(a), simplex(b))
        sets = frozenset_product_sets(frozenset_simplex_sets(a), frozenset_simplex_sets(b))
        assert_masks_match(P, sets)
        square = product(P, simplex(1))
        assert_masks_match(square, frozenset_product_sets(sets, frozenset_simplex_sets(1)))


class TestReportsWithOneMemo:
    @pytest.mark.parametrize("k", KS)
    def test_valid_w(self, k):
        report, _ = assert_reports_match_oracle(build_W(k))
        assert report.ok

    @pytest.mark.parametrize("k", KS)
    def test_loaded_w(self, k):
        blob = json.loads(json.dumps(wmanifold_to_json(build_W(k))))
        assert assert_reports_match_oracle(wmanifold_from_json(blob))[0].ok

    @pytest.mark.parametrize("k", KS)
    def test_mutated_w(self, k):
        rng = random.Random(300 + k)
        for _ in range(2):
            report, components = assert_reports_match_oracle(mutated_W(k, rng))
            assert not report.ok
            assert not all(mask_validate(c, Verdicts(c.polytope.facet_ids)).ok for c in components)

    @pytest.mark.parametrize("k", KS)
    def test_mutated_loaded_w(self, k):
        blob = json.loads(json.dumps(wmanifold_to_json(mutated_W(k, random.Random(400 + k)))))
        assert not assert_reports_match_oracle(wmanifold_from_json(blob))[0].ok

    @pytest.mark.parametrize("dims", [(2, 2), (1, 3), (2, 3)])
    def test_product_pairs(self, dims):
        a, b = dims
        P = product(simplex(a), simplex(b))
        rng = random.Random(a * 10 + b)
        for _ in range(6):
            vectors = {f: tuple(rng.randint(-1, 2) for _ in range(P.dim)) for f in P.facet_ids}
            vectors = {f: v if any(v) else (1,) + v[1:] for f, v in vectors.items()}
            pair = attach(P, vectors, P.dim)
            assert mask_validate(pair) == per_vertex_validate(pair)

    @pytest.mark.parametrize("k", (1, 2, 5))
    def test_valid_and_mutated_w_keep_their_own_memo(self, k):
        valid, mutated = build_W(k), mutated_W(k, random.Random(500 + k))
        for _ in range(2):  # in either order, each W's answers stay its own
            for W in (valid, mutated):
                report, _ = assert_reports_match_oracle(W)
                assert report.ok == (W is valid)
                assert W.report is report
        assert valid.report != mutated.report

    def test_verdicts_refuse_a_pair_of_other_facets(self):
        W = build_W(1)
        square = product(simplex(1), simplex(1))
        other = attach(square, {f: (1, 0) if f.startswith("L.") else (0, 1) for f in square.facet_ids}, 2)
        with pytest.raises(ValueError, match="another manifold"):
            mask_validate(other, Verdicts(W.pair.polytope.facet_ids))


def oracle_reasons(pair, report, facet_ids):
    """The verdict memo ``validate`` must leave for ``pair``, from the per-vertex oracle's ``report``.

    Each vertex's mapped-facet mask over ``facet_ids`` maps to "" or to the
    oracle's failure reason there.
    """
    failed = {f.vertex: f.reason for f in report.failures}
    place = {f: j for j, f in enumerate(facet_ids)}
    reasons = {}
    for v in pair.polytope.vertices:
        mapped = [f for f in v.facet_ids if f in pair.assignment]
        if mapped:
            reasons[sum(1 << place[f] for f in mapped)] = failed.get(v.id, "")
    return reasons


def mutated_tables(k, rng):
    """W's vectors with one kind of change each: a vector set to 2*e_j, or to 3*e_j, a
    duplicated vector, one random 0/+-1 vector, and every vector random in 0/+-1."""
    n = 2 * (k + 1)
    eta = {f: v.entries for f, v in eta_facet_assignment(n).items()}
    facets = sorted(eta)

    def unit_times(c):
        vec = [0] * (n - 1)
        vec[rng.randrange(n - 1)] = c
        return tuple(vec)

    def signs():
        vec = (0,) * (n - 1)
        while not any(vec):
            vec = tuple(rng.choice((-1, 0, 1)) for _ in range(n - 1))
        return vec

    a, b = rng.sample(facets, 2)
    return [
        eta | {rng.choice(facets): unit_times(2)},
        eta | {rng.choice(facets): unit_times(3)},
        eta | {a: eta[b]},
        eta | {rng.choice(facets): signs()},
        {f: signs() for f in facets},
    ]


class TestMissedRowsAgainstPerVertexOracle:
    """``validate`` judges a new full-count vector set from the assigned rows it misses.

    Its reports, on the label path and on the mask path, and the verdicts the
    mask path leaves in both memo forms, W's numbering and a component's own,
    must be those of one Bareiss determinant per vertex set
    (``oracles.per_vertex_validate``).
    """

    @staticmethod
    def assert_matches_oracle(W):
        report = per_vertex_validate(W.pair)
        assert W.report == report
        verdicts = Verdicts(W.pair.polytope.facet_ids)
        assert mask_validate(W.pair, verdicts) == report
        expected = oracle_reasons(W.pair, report, verdicts.facet_ids)
        for view, component in zip(boundary_components(W), mask_components(W)):
            report = per_vertex_validate(component)
            assert view.report == report
            assert mask_validate(component, verdicts) == report  # masks renumbered into W's
            own = Verdicts(component.polytope.facet_ids)
            assert mask_validate(component, own) == report
            assert own.reasons == oracle_reasons(component, report, component.polytope.facet_ids)
            for key, reason in oracle_reasons(component, report, verdicts.facet_ids).items():
                assert expected.setdefault(key, reason) == reason
        assert verdicts.reasons == expected
        return W.report

    @pytest.mark.parametrize("k", KS)
    def test_valid_w(self, k):
        assert self.assert_matches_oracle(build_W(k)).ok

    @pytest.mark.parametrize("k", KS)
    def test_mutated_w(self, k):
        n = 2 * (k + 1)
        P = truncated_simplex(n)
        for table in mutated_tables(k, random.Random(600 + k)):
            W = WManifold(attach(P, table, n - 1), n, Fraction(1, 5))
            assert not self.assert_matches_oracle(W).ok


@pytest.mark.parametrize("k", KS)
def test_printed_basis_change_determinant_is_the_bareiss_determinant(k):
    report = glue_report(build_W(k), 0)
    (details,) = [c.details for c in report.checks if c.name == "p3-normal-form"]
    printed = int(re.fullmatch(r".*basis change determinant (-?\d+)", details).group(1))
    form = normalize_simplex_pair(report.components[2])
    expected = dense_normalize_simplex_pair(mask_components(build_W(k))[2])
    assert form == expected.as_simplex_normal_form()
    assert printed == form.det == bareiss_det(matrix_rows(expected.basis_change))


def bitwise_renumbering(source, target, mask):
    """``renumbering`` bit by bit: each set bit j goes to the place of ``source[j]`` in ``target``, if it is there."""
    out = 0
    for j, f in enumerate(source):
        if mask >> j & 1 and f in target:
            out |= 1 << target.index(f)
    return out


class TestRenumberingAgainstBitwiseOracle:
    """``renumbering`` moves a mask by one shift per run of ids, by one and-shift when there is one run."""

    @staticmethod
    def assert_matches(source, target, masks):
        forward, back = renumbering(source, target), renumbering(target, source)
        for mask in masks:
            image = forward(mask)
            assert image == bitwise_renumbering(source, target, mask)
            assert back(image) == bitwise_renumbering(target, source, image)

    @staticmethod
    def random_masks(rng, width, count=40):
        return [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(count)]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_subsets(self, seed):
        rng = random.Random(seed)
        ids = sorted(f"f{i}" for i in range(rng.randint(1, 30)))
        runs = rng.choice(("one", "several"))
        if runs == "one":  # a contiguous run of the sorted ids
            lo = rng.randrange(len(ids))
            subset = ids[lo : rng.randint(lo + 1, len(ids))]
        else:
            subset = [f for f in ids if rng.random() < 0.5]
        self.assert_matches(ids, subset, self.random_masks(rng, len(ids)))
        self.assert_matches(subset, ids, self.random_masks(rng, len(subset)))

    @pytest.mark.parametrize("k", KS)
    def test_w_and_its_components(self, k):
        W = build_W(k)
        P = W.pair.polytope
        for component in mask_components(W):
            masks = list(P.incidence) + self.random_masks(random.Random(k), len(P.facet_ids))
            self.assert_matches(P.facet_ids, component.polytope.facet_ids, masks)
            self.assert_matches(component.polytope.facet_ids, P.facet_ids, component.polytope.incidence)


R1S = (Fraction(1, 5), Fraction(1, 7), Fraction(2, 9))


def loaded(W):
    return wmanifold_from_json(json.loads(json.dumps(wmanifold_to_json(W))))


def with_vector(view, fid, entries):
    """A boundary component with the vector on ``fid`` replaced."""
    assignment = {**view.assignment, fid: CharVector.canon(entries)}
    return type(view)(view.face, view.rest, assignment, view.torus_rank, view.report)


def block_witnesses(n):
    """The witness phi of ``translation-p1-p2``, the identity, and the witness after a swap of two facets
    inside F1 and of two across F1 and R1, each with delta' and with the identity matrix."""
    phi = rho_facet_bijection(n)

    def swapped(a, b):
        return {**phi, f"d{a}": phi[f"d{b}"], f"d{b}": phi[f"d{a}"]}

    phis = (phi, {f: f for f in phi}, swapped(0, 1), swapped(0, n // 2))
    return [TranslationWitness(p, delta) for p in phis for delta in (delta_matrix(n), identity(n - 1))]


def assert_blocks_are_the_label_walks(W):
    """W's boundary components, read off the blocks F x R, are the label walks' (``oracles.label_components``):
    the same vertices, facets, vectors, reports, types and translations, and the Euler count is the labels'."""
    views, walks = boundary_components(W), label_components(W)
    for view, walk in zip(views, walks):
        assert sorted((i, m) for i in view.face for m in view.rest) == sorted((i, m) for i, m, _ in walk.labels)
        assert (view.roots, view.facet_ids, view.assignment) == (walk.roots, walk.facet_ids, walk.assignment)
        assert view.report == walk.report
        assert identify_simplex_or_product(view) == label_identify_simplex_or_product(walk)
    for w in block_witnesses(W.n):
        for a, b in ((0, 1), (1, 0), (0, 0), (1, 1)):
            assert verify_translation(views[a], views[b], w) == label_verify_translation(walks[a], walks[b], w)
    ids = views[2].facet_ids
    for phi in (dict(zip(ids, ids)), dict(zip(ids, ids[1:] + ids[:1]))):
        w = TranslationWitness(phi, identity(W.n - 1))
        assert verify_translation(views[2], views[2], w) == label_verify_translation(walks[2], walks[2], w)
    if W.report.ok:
        assert cell_stage(W, 0).euler.half_boundary_vertices == sum(len(walk.labels) for walk in walks) // 2


def assert_label_path_is_mask_path(W, seeds=(0,)):
    """W's validation on its labels, its boundary components on their blocks, their types and translations,
    and W's JSON report are the mask path's, and the components are the label walks'."""
    n = W.n
    assert validate(W.pair, lambda: W.labels) == W.report == mask_validate(W.pair)
    views, faces = boundary_components(W), mask_components(W)
    verdicts = Verdicts(W.pair.polytope.facet_ids)
    mask_validate(W.pair, verdicts)
    assert [v.report for v in views] == [mask_validate(f, verdicts) for f in faces]
    assert [v.facet_ids for v in views] == [f.polytope.facet_ids for f in faces]
    assert [v.assignment for v in views] == [f.assignment for f in faces]
    assert [len(v.face) * len(v.rest) for v in views] == [len(f.polytope.vertices) for f in faces]
    types = [identify_simplex_or_product(v) for v in views]
    assert types == [mask_identify_simplex_or_product(f.polytope) for f in faces]
    assert_blocks_are_the_label_walks(W)
    witnesses = [
        TranslationWitness(rho_facet_bijection(n), delta_matrix(n)),
        TranslationWitness(rho_facet_bijection(n), identity(n - 1)),
        TranslationWitness({f: f for f in views[0].facet_ids}, identity(n - 1)),
    ]
    for w in witnesses:  # P1 and P2 both have every root facet d0..dn
        for a, b in ((0, 1), (1, 0)):
            assert verify_translation(views[a], views[b], w) == mask_verify_translation(faces[a], faces[b], w)
    ids = views[2].facet_ids  # P3 misses d{n/2} at every vertex: that facet is not one of its own
    for phi in (dict(zip(ids, ids)), dict(zip(ids, ids[1:] + ids[:1]))):
        w = TranslationWitness(phi, identity(n - 1))
        assert verify_translation(views[2], views[2], w) == mask_verify_translation(faces[2], faces[2], w)
    changed = with_vector(views[0], "d0", (1,) * (n - 1))
    face = type(faces[0])(faces[0].polytope, faces[0].torus_rank, changed.assignment)
    assert verify_translation(changed, views[1], witnesses[0]) == mask_verify_translation(face, faces[1], witnesses[0])
    for seed in seeds:
        assert glue_report_to_json(glue_report(W, seed, 1)) == glue_report_to_json(mask_glue_report(W, seed, 1))


class TestLabelPathAgainstMaskPath:
    """The label path of ``validate``, the block path of ``boundary_components``,
    ``identify_simplex_or_product`` and ``verify_translation``, and ``glue_report`` against the mask path
    they replaced, and the blocks against the label walks."""

    @pytest.mark.parametrize("r1", R1S, ids=str)
    @pytest.mark.parametrize("k", range(1, 13))
    def test_built_and_loaded_w(self, k, r1):
        W = build_W(k, r1)
        assert W.labels == decode_truncated_simplex(W.pair.polytope, r1)
        for w in (W, loaded(W)):
            assert_label_path_is_mask_path(w, seeds=(0, k))

    @pytest.mark.parametrize("k", (1, 2, 3, 5))
    def test_mutated_corpus(self, k):
        n = 2 * (k + 1)
        rng = random.Random(700 + k)
        for r1 in R1S:
            P = truncated_simplex(n, r1)
            for table in mutated_tables(k, rng):
                W = WManifold(attach(P, table, n - 1), n, r1)
                for w in (W, loaded(W)):
                    assert_label_path_is_mask_path(w)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 3), data=st.data())
    def test_one_changed_entry_of_a_loaded_certificate(self, k, data):
        blob = json.loads(json.dumps(wmanifold_to_json(build_W(k, data.draw(st.sampled_from(R1S))))))
        vectors = blob["pair"]["vectors"]
        vector = vectors[data.draw(st.sampled_from(sorted(vectors)))]
        j = data.draw(st.integers(0, len(vector) - 1))
        vector[j] = data.draw(st.integers(-3, 3))
        if not any(vector):
            vector[j] = 1
        assert_label_path_is_mask_path(wmanifold_from_json(blob))


class TestBlocksAgainstLabelWalks:
    """The boundary checks on W's three blocks F x R against the label walks they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 12), r1=st.sampled_from(R1S), load=st.booleans())
    def test_built_and_loaded_w(self, k, r1, load):
        W = build_W(k, r1)
        assert_blocks_are_the_label_walks(loaded(W) if load else W)

    @pytest.mark.parametrize("k", (1, 2, 5))
    def test_each_witness_decides_as_the_missed_pairs_do(self, k):
        n = 2 * (k + 1)
        views, walks = boundary_components(build_W(k)), label_components(build_W(k))
        found = []
        for w in block_witnesses(n):
            report = verify_translation(views[0], views[1], w)
            assert report == label_verify_translation(walks[0], walks[1], w)
            found.append(report.phi_is_isomorphism)
        # phi and its swap inside F1 carry F1 onto F2; the identity and the swap across F1 and R1 do not.
        assert found == [True, True, False, False, True, True, False, False]
        assert verify_translation(views[0], views[1], block_witnesses(n)[0]).ok


def key_classes(pair):
    """The rows of M in ``validate``'s order, by (nonzero entries, facet id), and a function from a set of
    two missed rows to its class: the sorted Gale vectors of its rows, up to sign.  They are read off
    ``FractionFullCountCertificate``: with D = det M_A and X a free row's coefficients over the anchor A,
    the two free rows get (D, 0) and (0, D), and an anchor row the D X of the two free rows at it."""
    rank = pair.torus_rank
    ids = sorted(pair.assignment, key=lambda f: (sum(x != 0 for x in pair.assignment[f].entries), f))
    oracle = FractionFullCountCertificate([pair.assignment[f].entries for f in ids], rank)
    gale = [(0, 0)] * len(ids)
    if oracle.anchor is not None:
        p, q = [j for j in range(len(ids)) if j not in oracle.anchor]
        D, X = oracle.det, oracle.coefficients
        gale = [(D * X[p][t], D * X[q][t]) if (t := oracle.anchor.get(j)) is not None else (D, 0) if j == p else (0, D)
                for j in range(len(ids))]
        assert all(x.denominator == 1 for g in gale for x in map(Fraction, g))
        gale = [max((int(a), int(b)), (-int(a), -int(b))) for a, b in gale]
    return ids, lambda missed: tuple(sorted(gale[j] for j in missed))


@pytest.fixture
def judged(monkeypatch):
    """The pairs of Gale vectors whose minor ``validate`` evaluates, in call order."""
    pairs = []
    minor = charfn._gale_minor

    def recording(g, h):
        pairs.append((g, h))
        return minor(g, h)

    monkeypatch.setattr(charfn, "_gale_minor", recording)
    return pairs


class TestFailingKeysJudgedOnce:
    """``validate`` judges each distinct class of missed-row key, its pair of Gale vectors, by one 2 x 2
    minor and walks the vertices again only when a class fails.  On the mutated corpus, built and loaded,
    its failures are the mask path's (``oracles.mask_validate``) and the per-vertex oracle's, in the same
    order, and ``_gale_minor`` runs once per distinct class of full-count key."""

    @pytest.mark.parametrize("k", (1, 2, 3, 5))
    def test_mutated_corpus(self, judged, k):
        n = 2 * (k + 1)
        rng = random.Random(800 + k)
        P = truncated_simplex(n)
        corpus = [mutated_W(k, rng) for _ in range(2)]
        corpus += [WManifold(attach(P, table, n - 1), n, Fraction(1, 5)) for table in mutated_tables(k, rng)]
        merged = 0
        for W in corpus:
            for w in (W, loaded(W)):
                pair = w.pair
                ids, class_of = key_classes(pair)
                full = {
                    frozenset(f for f in v.facet_ids if f in pair.assignment)
                    for v in pair.polytope.vertices
                    if sum(f in pair.assignment for f in v.facet_ids) == pair.torus_rank
                }
                missed = [tuple(j for j, f in enumerate(ids) if f not in kept) for kept in full]
                classes = {class_of(rows) for rows in missed}
                merged += len(classes) < len(full)
                # The library's Gale vectors rest on its own anchor, which may not be the oracle's: the two differ
                # by a GL(2, Q) map, so each class of the oracle's is one of the library's, and back.
                gale, _ = charfn._gale_vectors([pair.assignment[f].nonzero for f in ids], pair.torus_rank)
                keys = {rows: tuple(sorted(gale[j] for j in rows)) for rows in missed}
                assert len({(class_of(rows), keys[rows]) for rows in missed}) == len(classes) == len(set(keys.values()))
                expected = per_vertex_validate(pair)
                assert not expected.ok
                judged.clear()
                report = validate(pair, lambda: w.labels)
                if classes == {((0, 0), (0, 0))}:  # rank M < r: no minor is evaluated
                    assert judged == []
                else:
                    assert len(judged) == len(set(judged)) == len(classes)
                    assert set(judged) == set(keys.values())
                assert report == expected == w.report
                assert report.failures == mask_validate(pair).failures
        assert merged  # some classes hold more than one key

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_rank_deficient_m(self, judged, k):
        """When rank M < r there is no anchor and d = 0: no minor is evaluated, and every vertex fails."""
        n = 2 * (k + 1)
        units = [tuple(int(p == q) for q in range(n - 1)) for p in range(2)]
        table = {f"d{m}": units[m % 2] if m < 2 else tuple(a + b for a, b in zip(*units)) for m in range(n + 1)}
        W = WManifold(attach(truncated_simplex(n), table, n - 1), n, Fraction(1, 5))
        for w in (W, loaded(W)):
            expected = per_vertex_validate(w.pair)
            assert len(expected.failures) == expected.checked_vertices
            judged.clear()
            assert validate(w.pair, lambda: w.labels) == expected
            assert judged == []
            assert mask_validate(w.pair) == expected


def random_table(n, rng):
    """n + 1 nonzero vectors of Z^(n-1), for the root facets d0..dn: sparse 0/+-1 entries, denser entries in
    [-2, 2], or sparse ones with a column zeroed, so that d = 1, |d| > 1 and rank M < r all occur."""
    r = n - 1
    shape = rng.choice(("sparse", "sparse", "dense", "deficient"))
    bound, density = (2, 0.7) if shape == "dense" else (1, 0.35)
    rows = []
    for _ in range(n + 1):
        v = [0] * r
        while not any(v):
            v = [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(r)]
        rows.append(v)
    if shape == "deficient":
        c = rng.randrange(r)
        rows = [v[:c] + [0] + v[c + 1 :] if any(v[:c] + v[c + 1 :]) else v for v in rows]
    return {f"d{m}": tuple(v) for m, v in enumerate(rows)}


def twisted(W, rng):
    """W through its JSON with every vector replaced by g eta, g a random unimodular matrix."""
    g = random_unimodular(rng, W.n - 1)
    data = json.loads(json.dumps(wmanifold_to_json(W)))
    data["pair"]["vectors"] = {f: list(apply_matrix(g, v)) for f, v in data["pair"]["vectors"].items()}
    return wmanifold_from_json(data)


def assert_gale_minors_are_the_certificates(gale, d, certificate):
    """For every pair of rows i, m: |det(g_i, g_m)| = |d| * |det M_S|, S the rows other than i and m, with
    |det M_S| the certificate's, and the verdict d != 0 and |det(g_i, g_m)| = |d| is the certificate's.  The
    Gale vectors and d depend on the anchor, the certificate's or another; this rule does not."""
    assert (d == 0) == (certificate.anchor is None)
    for i in range(len(gale)):
        for m in range(i + 1, len(gale)):
            minor = charfn._gale_minor(gale[i], gale[m])
            assert minor == d * certificate.abs_det([i, m])
            assert (d != 0 and minor == d) == certificate.is_unimodular([i, m])


def assert_gale_rule_is_the_certificate(w):
    """``validate``'s verdict at every vertex (i, m) of ``w`` is ``oracles.FullCountCertificate``'s on the rows
    of d{i} and d{m}, and ``_gale_vectors`` with ``_gale_minor`` decides every pair of rows, vertex or not, as
    the certificate does; returns |d| and the number of vertices that pass."""
    pair = w.pair
    ids = tuple(sorted(pair.assignment, key=lambda f: (len(pair.assignment[f].nonzero), f)))  # ``validate``'s order
    row = {f: j for j, f in enumerate(ids)}
    rows = [pair.assignment[f].nonzero for f in ids]
    certificate = FullCountCertificate(rows, pair.torus_rank)
    gale, d = charfn._gale_vectors(rows, pair.torus_rank)
    assert_gale_minors_are_the_certificates(gale, d, certificate)
    failing = set(validate(pair, lambda: w.labels).failing_vertices())
    passed = 0
    for v, (i, m, _) in zip(pair.polytope.vertices, w.labels):
        expected = certificate.is_unimodular(sorted((row[f"d{i}"], row[f"d{m}"])))
        assert (v.id not in failing) == expected
        passed += expected
    return d, passed


@st.composite
def peel_tables(draw):
    """r + 2 nonzero rows of Z^r, r <= 8, in the order ``_gale_vectors`` takes them: c * e_p for c in
    {+-1, +-2, 3}, so that +-e_p repeats at one place and 2 * e_p comes before e_p, and dense rows with entries
    in -2..2, whose core has |d| > 1; or all of them with one place zeroed, so that rank M < r."""
    r = draw(st.integers(1, 8))
    scale = st.sampled_from((1, -1, 2, -2, 3))
    unit = st.builds(lambda p, c: tuple(c * (q == p) for q in range(r)), st.integers(0, r - 1), scale)
    dense = st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any).map(tuple)
    rows = draw(st.lists(st.one_of(unit, unit, dense), min_size=r + 2, max_size=r + 2))
    if r > 1 and draw(st.booleans()):
        c = draw(st.integers(0, r - 1))
        zeroed = [row[:c] + (0,) + row[c + 1 :] for row in rows]
        rows = [row if any(row) else tuple(int(q == (c + 1) % r) for q in range(r)) for row in zeroed]
    return r, rows


@given(peel_tables())
@settings(max_examples=300, deadline=None)
@example((2, [(1, 0), (-1, 0), (0, 1), (1, 1)]))  # +-e_0 twice: one anchor row, and one free row
@example((2, [(-1, 0), (0, -1), (1, 1), (1, -1)]))  # -e_p
@example((2, [(2, 0), (1, 0), (0, 1), (1, 1)]))  # 2 * e_0 before e_0
@example((3, [(1, 0, 0), (0, 2, 1), (0, 1, 3), (0, 1, 1), (1, 1, 1)]))  # a core of |d| = 5
@example((3, [(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 0)]))  # rank M < r
def test_peeled_gale_vectors_are_the_certificate(case):
    """The peeled Gale vectors give every pair of rows the certificate's |det M_S| = |det(g_i, g_m)| / |d| and
    verdict, whichever rows the peel and the core take as the anchor."""
    r, rows = case
    pairs = nonzero_pairs(rows)
    gale, d = charfn._gale_vectors(pairs, r)
    assert_gale_minors_are_the_certificates(gale, d, FullCountCertificate(pairs, r))


class TestGaleRule:
    """One 2 x 2 Gale minor per vertex, |det(g_i, g_m)| = |d|, against the certificate of any co-rank it
    replaced (``oracles.FullCountCertificate``) on random tables, on built, loaded and g eta W, and on the
    mutated corpus."""

    @pytest.mark.parametrize("n", (4, 6, 8, 10))
    def test_random_tables(self, n):
        rng = random.Random(1100 + n)
        kinds = Counter()
        for _ in range(40):
            W = WManifold(attach(truncated_simplex(n), random_table(n, rng), n - 1), n, Fraction(1, 5))
            for w in (W, loaded(W)):
                d, passed = assert_gale_rule_is_the_certificate(w)
            kinds["rank M < r" if d == 0 else "d = 1" if d == 1 else "|d| > 1"] += 1
        assert len(kinds) == 3, kinds

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 12), r1=st.sampled_from(R1S), source=st.sampled_from(("built", "loaded", "twisted")))
    def test_built_loaded_and_twisted_w(self, k, r1, source):
        W = build_W(k, r1)
        w = {"built": W, "loaded": loaded(W), "twisted": twisted(W, random.Random(k))}[source]
        d, passed = assert_gale_rule_is_the_certificate(w)
        assert passed == len(w.labels) and w.report.ok
        assert d == 1  # g eta has eta's relations, whose Gale vectors make every independent n - 1 rows a basis

    @pytest.mark.parametrize("k", (1, 2, 3, 5))
    def test_mutated_corpus(self, k):
        n = 2 * (k + 1)
        rng = random.Random(1200 + k)
        scaled_anchor_passes = False  # |d| > 1, yet a vertex is a basis
        eta = {f: v.entries for f, v in eta_facet_assignment(n).items()}
        for r1 in R1S:
            P = truncated_simplex(n, r1)
            corpus = [WManifold(attach(P, table, n - 1), n, r1) for table in mutated_tables(k, rng)]
            # d1's e_(n-2) made 2 * e_(n-2): no unit row is left at place n - 2, so every anchor holds that row.
            corpus.append(WManifold(attach(P, eta | {"d1": (0,) * (n - 2) + (2,)}, n - 1), n, r1))
            for W in [mutated_W(k, rng)] + corpus:
                for w in (W, loaded(W)):
                    d, passed = assert_gale_rule_is_the_certificate(w)
                    scaled_anchor_passes |= d > 1 and passed > 0
        assert scaled_anchor_passes


@pytest.mark.parametrize("k", range(1, 65))
def test_w_gale_table(monkeypatch, k):
    """W's Gale vectors, as ``validate`` reads them: d = 1, and, up to sign, (1, 0) and (0, 1) n/2 times
    each and (1, 1) once, so the 3 pairs of distinct vectors are the only minors judged."""
    made = []
    gale_vectors = charfn._gale_vectors

    def recording(rows, rank):
        made.append(gale_vectors(rows, rank))
        return made[-1]

    monkeypatch.setattr(charfn, "_gale_vectors", recording)
    W = build_W(k)
    n = W.n
    assert W.report.ok
    ((gale, d),) = made
    assert d == 1
    assert Counter(gale) == {(1, 0): n // 2, (0, 1): n // 2, (1, 1): 1}


class TestMasksThatCollideUnderHash:
    """An int hashes modulo 2^61 - 1, so the masks of bits j and j + 61 hash alike; the constructor
    must still tell them apart, and still refuse a real duplicate."""

    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(62, 140), data=st.data())
    def test_distinct_colliding_masks_are_accepted_and_duplicates_refused(self, width, data):
        ids = tuple(f"f{j:03d}" for j in range(width))
        facets = [FacetLabel(f, original_facet(j)) for j, f in enumerate(ids)]
        masks = [1 << j for j in range(width)]  # dim 1: each vertex on one facet
        assert hash(masks[0]) == hash(masks[61])
        P = SimplePolytope(1, facets, [Vertex(f"v{j:03d}", mask, ids) for j, mask in enumerate(masks)])
        assert list(P.incidence) == masks
        first = data.draw(st.integers(0, width - 1))
        copy_at = data.draw(st.integers(0, width))
        named = [(f"v{j:03d}", mask) for j, mask in enumerate(masks)]
        named.insert(copy_at, ("w", masks[first]))
        vertices = [Vertex(name, mask, ids) for name, mask in named]
        earlier = min(f"v{first:03d}", "w")
        later = max(f"v{first:03d}", "w")
        with pytest.raises(ValueError, match=f"^vertices {earlier} and {later} have identical facet sets$"):
            SimplePolytope(1, facets, vertices)

    def test_truncated_simplex_past_61_facets_decodes(self):
        n = 64  # 68 facets: bit positions past 61
        P = truncated_simplex(n)
        blob = json.loads(json.dumps(polytope_to_json(P)))
        assert decode_truncated_simplex(P, Fraction(1, 5)) == truncation_labels(n)
        load = polytope_from_json(blob)
        labels = decode_truncated_simplex(load, Fraction(1, 5))
        assert sorted(labels) == sorted(truncation_labels(n))
