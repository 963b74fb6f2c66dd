"""Incidence masks against the per-vertex frozensets the library built before it kept masks only.

Covers k = 1..8, built and loaded from JSON: W, its three boundary faces and
products of simplices.  Each vertex's derived ``facet_ids`` must equal the
oracle's set, ``polytope_to_json`` must give the oracle's bytes, and every
validation report, with one verdict memo shared by W and its components
and with a fresh memo per component, must equal ``oracles.per_vertex_validate``, reasons included.
"""

import json
import random
import re
from fractions import Fraction

import pytest

from cpbound.charfn import Verdicts, eta_facet_assignment, normalize_simplex_pair, validate
from cpbound.cobordism import (
    BOUNDARY_FACETS,
    WManifold,
    boundary_components,
    build_W,
    glue_report,
    wmanifold_from_json,
    wmanifold_to_json,
)
from cpbound.polytope import (
    face_as_polytope,
    face_from_facets,
    polytope_to_json,
    product,
    renumbering,
    truncated_simplex,
)

from oracles import (
    attach,
    bareiss_det,
    frozenset_face_sets,
    frozenset_polytope_to_json,
    frozenset_product_sets,
    frozenset_simplex_sets,
    frozenset_truncated_simplex_sets,
    matrix_rows,
    per_vertex_validate,
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
    """W and its components, validated with one memo and each with a fresh one, report what the
    per-vertex oracle does."""
    assert W.report == per_vertex_validate(W.pair)
    components = boundary_components(W)
    for component in components:
        expected = per_vertex_validate(component)
        assert validate(component) == expected
        assert validate(component, W.verdicts) == expected
    return W.report, components


class TestFacetSets:
    @pytest.mark.parametrize("k", KS)
    def test_built_w_and_its_faces(self, k):
        n = 2 * (k + 1)
        P = truncated_simplex(n)
        sets = frozenset_truncated_simplex_sets(n)
        assert_masks_match(P, sets)
        for facet in BOUNDARY_FACETS:
            assert_masks_match(face_as_polytope(P, face_from_facets(P, [facet])), frozenset_face_sets(sets, facet))

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
            assert_masks_match(face_as_polytope(P, face_from_facets(P, [facet])), frozenset_face_sets(sets, facet))

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
            assert not all(validate(c, Verdicts(c.polytope.facet_ids)).ok for c in components)

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
            assert validate(pair) == per_vertex_validate(pair)

    @pytest.mark.parametrize("k", (1, 2, 5))
    def test_valid_and_mutated_w_keep_their_own_memo(self, k):
        valid, mutated = build_W(k), mutated_W(k, random.Random(500 + k))
        for _ in range(2):  # in either order, each W's answers stay its own
            for W in (valid, mutated):
                before = dict(W.verdicts.reasons)
                report, _ = assert_reports_match_oracle(W)
                assert report.ok == (W is valid)
                assert W.verdicts.reasons.items() >= before.items()
        assert valid.verdicts is not mutated.verdicts
        assert set(valid.verdicts.reasons.values()) == {""}
        assert set(mutated.verdicts.reasons.values()) != {""}

    def test_verdicts_refuse_a_pair_of_other_facets(self):
        W = build_W(1)
        square = product(simplex(1), simplex(1))
        other = attach(square, {f: (1, 0) if f.startswith("L.") else (0, 1) for f in square.facet_ids}, 2)
        with pytest.raises(ValueError, match="another manifold"):
            validate(other, W.verdicts)


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

    Its reports, and the verdicts it leaves in both memo forms, W's numbering
    and a component's own, must be those of one Bareiss determinant per
    vertex set (``oracles.per_vertex_validate``).
    """

    @staticmethod
    def assert_matches_oracle(W):
        report = per_vertex_validate(W.pair)
        assert W.report == report
        expected = oracle_reasons(W.pair, report, W.verdicts.facet_ids)
        for component in boundary_components(W):
            report = per_vertex_validate(component)
            assert validate(component, W.verdicts) == report  # masks renumbered into W's
            own = Verdicts(component.polytope.facet_ids)
            assert validate(component, own) == report
            assert own.reasons == oracle_reasons(component, report, component.polytope.facet_ids)
            for key, reason in oracle_reasons(component, report, W.verdicts.facet_ids).items():
                assert expected.setdefault(key, reason) == reason
        assert W.verdicts.reasons == expected
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
    assert printed == form.det == bareiss_det(matrix_rows(form.basis_change))


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
        for component in boundary_components(W):
            masks = list(P.incidence) + self.random_masks(random.Random(k), len(P.facet_ids))
            self.assert_matches(P.facet_ids, component.polytope.facet_ids, masks)
            self.assert_matches(component.polytope.facet_ids, P.facet_ids, component.polytope.incidence)
