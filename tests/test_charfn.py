import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpbound.charfn import (
    CharPair,
    CharVector,
    CutPair,
    TranslationWitness,
    ValidationReport,
    VertexCheck,
    charpair_from_json,
    charpair_to_json,
    delta_matrix,
    eta_facet_assignment,
    eta_standard,
    normalize_simplex_pair,
    orientation_signs,
    restrict_to_facet,
    rho_facet_bijection,
    rho_permutation,
    validate,
    verify_translation,
)
from cpbound.cobordism import WManifold, boundary_components, build_W, glue_report
from cpbound.polytope import product, truncated_simplex, truncation_labels
from cpbound.zlinalg import IntMatrix, apply_matrix, determinant, permutation_sign

from oracles import (
    FractionFullCountCertificate,
    FullCountCertificate,
    attach,
    bareiss_det,
    cofactor_det,
    compose_witnesses,
    dense_apply_matrix,
    dense_normalize_simplex_pair,
    edges_of,
    fraction_rank,
    from_rows,
    identity,
    inverse_witness,
    mask_components,
    mask_validate,
    matmul,
    minor_gcd_invariant_factors,
    nonzero_pairs,
    per_vertex_validate,
    random_unimodular,
    simplex,
)

EVEN_RANGE = (4, 6, 8, 10, 12)


def w_pair(n, r1=Fraction(1, 5)):
    P = truncated_simplex(n, r1)
    return attach(P, {f: v.entries for f, v in eta_facet_assignment(n).items()}, n - 1)


def validate_w(pair):
    """``validate`` on a pair over ``truncated_simplex(n, r1)``, whose vertex labels are ``truncation_labels(n)``."""
    return validate(pair, lambda: truncation_labels(pair.polytope.dim))


def cp_pair(d):
    """The standard projective pair over the d-simplex."""
    assignment = {f"d{i}": tuple(1 if j == i else 0 for j in range(d)) for i in range(d)}
    assignment[f"d{d}"] = (1,) * d
    return attach(simplex(d), assignment, d)


class TestCharVector:
    def test_canonicalization(self):
        assert CharVector.canon((-1, 2, 0)).entries == (1, -2, 0)
        assert CharVector.canon((0, 0, 3)).entries == (0, 0, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            CharVector.canon((0, 0, 0))
        with pytest.raises(ValueError):
            CharVector(1, ())

    def test_non_canonical_constructor_rejected(self):
        with pytest.raises(ValueError):
            CharVector(2, ((0, -1),))


class TestEtaStandard:
    def test_n4_exact_table(self):
        eta = eta_standard(4)
        assert eta[0].entries == (1, 0, 0)
        assert eta[1].entries == (1, 1, 0)
        assert eta[2].entries == (0, 1, 0)
        assert eta[3].entries == (0, 0, 1)
        assert eta[4].entries == (0, 1, 1)

    def test_n6_block_cases(self):
        eta = eta_standard(6)
        assert eta[2].entries == (1, 1, 1, 0, 0)  # ones up to place n/2
        assert eta[6].entries == (0, 0, 1, 1, 1)  # zeros up to place n/2 - 1

    def test_facet_assignment_reverses_index(self):
        table = eta_facet_assignment(4)
        assert table["d4"].entries == (1, 0, 0)  # eta_0
        assert table["d0"].entries == (0, 1, 1)  # eta_4

    @pytest.mark.parametrize("bad", [2, 3, 5])
    def test_input_validation(self, bad):
        with pytest.raises(ValueError):
            eta_standard(bad)


class TestAttachAndValidate:
    def test_w_pair_structure(self):
        pair = w_pair(4)
        assert pair.torus_rank == 3
        assert pair.boundary_facet_ids == ("P1", "P2", "P3")
        assert len(pair.assignment) == 5

    def test_w_pair_valid_n4(self):
        report = validate_w(w_pair(4))
        assert report.ok
        assert report.checked_vertices == 16

    @pytest.mark.parametrize("n", EVEN_RANGE)
    def test_w_pair_valid_all_n(self, n):
        report = validate_w(w_pair(n))
        assert report.ok
        assert report.checked_vertices == n * (n + 4) // 2

    def test_projective_pair_valid(self):
        assert mask_validate(cp_pair(3)).ok

    def test_vector_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            attach(simplex(3), {"d0": (1, 0)}, 3)

    def test_validate_names_the_first_vector_of_another_length(self):
        # Rank-2 vectors over the truncated 4-simplex, whose vertices need 3: no WManifold takes them.
        pair = attach(truncated_simplex(4), {f"d{j}": (1, j) for j in range(5)}, 2)
        with pytest.raises(ValueError) as error:
            validate(pair, lambda: pytest.fail("no vertex is listed"))
        assert str(error.value) == "vector on facet d0 has length 2, expected 3"
        with pytest.raises(ValueError, match="^torus rank must be 3, got 2$"):
            WManifold(pair, 4, Fraction(1, 5))

    def test_unknown_facet(self):
        with pytest.raises(ValueError, match="unknown"):
            attach(simplex(3), {"zzz": (1, 0, 0)}, 3)

    def test_closed_pair_needs_full_rank(self):
        assignment = {f"d{i}": (1, 0, 0) for i in range(4)}
        with pytest.raises(ValueError, match="closed pair"):
            CharPair(simplex(3), 2, {k: CharVector(2, ((0, 1),)) for k in assignment})

    def test_mutated_pair_fails_exactly_where_vectors_collide(self):
        n = 4
        P = truncated_simplex(n, Fraction(1, 5))
        table = {f: v.entries for f, v in eta_facet_assignment(n).items()}
        table["d3"] = (1, 0, 0)  # duplicates the vector on d4
        pair = attach(P, table, 3)
        report = validate_w(pair)
        assert not report.ok

        expected = set()
        for v in P.vertices:
            mapped = sorted(f for f in v.facet_ids if f in pair.assignment)
            rows = [list(pair.assignment[f].entries) for f in mapped]
            if abs(cofactor_det(rows)) != 1:  # oracle, independent of validate()
                expected.add(v.id)
        assert set(report.failing_vertices()) == expected
        assert expected == {v.id for v in P.vertices if {"d3", "d4"} <= v.facet_ids}
        assert expected  # non-vacuous


def reference_failures(pair):
    """(vertex, facets, reason) of every failing vertex, from the brute-force oracles."""
    reasons = {}
    out = []
    for v in pair.polytope.vertices:
        mapped = sorted(f for f in v.facet_ids if f in pair.assignment)
        if not mapped:
            continue
        rows = tuple(pair.assignment[f].entries for f in mapped)
        if rows not in reasons:
            matrix = [list(r) for r in rows]
            full = len(rows) == pair.torus_rank
            if full and abs(cofactor_det(matrix)) == 1:
                reasons[rows] = ""
            else:
                factors = minor_gcd_invariant_factors(matrix)
                summand = not full and factors == (1,) * len(rows)
                reasons[rows] = "" if summand else (
                    f"vectors do not span a direct summand (invariant factors {factors})"
                )
        if reasons[rows]:
            out.append((v.id, tuple(mapped), reasons[rows]))
    return out


def mutated_w_table(n, rng):
    """The standard vectors with one facet's vector replaced by m*e_j or by another facet's."""
    table = {f: v.entries for f, v in eta_facet_assignment(n).items()}
    facet = rng.choice(sorted(table))
    if rng.random() < 0.5:
        vec = [0] * (n - 1)
        vec[rng.randrange(n - 1)] = rng.choice((2, 3))
        table[facet] = tuple(vec)
    else:
        table[facet] = table[rng.choice(sorted(set(table) - {facet}))]
    return table


class TestValidateAgainstOracle:
    """validate() must give the oracle's verdicts, failing vertices and reasons."""

    def assert_matches_oracle(self, pair, labels=None):
        """``validate`` over the truncated simplex, given its labels; ``mask_validate`` on any other pair."""
        report = validate(pair, lambda: labels) if labels else mask_validate(pair)
        expected = reference_failures(pair)
        assert report.ok == (not expected)
        assert report.checked_vertices == len(pair.polytope.vertices)
        assert [(f.vertex, f.facets, f.reason) for f in report.failures] == expected
        assert report == per_vertex_validate(pair)
        return report

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_mutated_w_pairs(self, k):
        n = 2 * (k + 1)
        rng = random.Random(1000 + k)
        P = truncated_simplex(n, Fraction(1, 5))
        failed = 0
        for _ in range(4):
            pair = attach(P, mutated_w_table(n, rng), n - 1)
            failed += not self.assert_matches_oracle(pair, truncation_labels(n)).ok
        assert failed  # non-vacuous

    def test_random_simplex_pairs(self):
        rng = random.Random(77)
        outcomes = set()
        for _ in range(60):
            d = rng.randint(2, 4)
            boundary = set(rng.sample(range(d + 1), rng.randint(0, 2)))
            rank = d if not boundary else rng.randint(max(1, d - 1), d + 1)
            assignment = {}
            for i in range(d + 1):
                if i in boundary:
                    continue
                vec = (0,) * rank
                while not any(vec):
                    vec = tuple(rng.randint(-2, 2) for _ in range(rank))
                assignment[f"d{i}"] = vec
            report = self.assert_matches_oracle(attach(simplex(d), assignment, rank))
            outcomes.add(report.ok)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("k", (1, 2))
    def test_verdicts_stay_with_their_manifold(self, k):
        n = 2 * (k + 1)
        P = truncated_simplex(n, Fraction(1, 5))
        table = {f: v.entries for f, v in eta_facet_assignment(n).items()}
        table["d1"] = table["d2"]
        for _ in range(2):
            valid = build_W(k)
            mutated = WManifold(attach(P, table, n - 1), n, Fraction(1, 5))
            assert valid.report is not mutated.report
            assert self.assert_matches_oracle(valid.pair, valid.labels).ok
            assert not self.assert_matches_oracle(mutated.pair, mutated.labels).ok
            assert glue_report(valid, 0).passed
            assert glue_report(mutated, 0).failed_checks() == ("w-validity",)
            assert self.assert_matches_oracle(valid.pair, valid.labels).ok


def product_of_simplices(dims):
    """Delta^d1 x Delta^d2 x ... with the product of the standard projective pairs."""
    P = simplex(dims[0])
    vectors = {f: v.entries for f, v in cp_pair(dims[0]).assignment.items()}
    for d in dims[1:]:
        rank = P.dim
        P = product(P, simplex(d))
        vectors = {f"L.{f}": v + (0,) * d for f, v in vectors.items()} | {
            f"R.{f}": (0,) * rank + v.entries for f, v in cp_pair(d).assignment.items()
        }
    return P, vectors


class TestValidateAgainstPerVertexOracle:
    """validate() certifies full-count vertices from one elimination per pair;
    its reports must equal those of one Bareiss determinant per vertex set."""

    def assert_same(self, pair, labels=None):
        """``validate`` over the truncated simplex, given its labels; ``mask_validate`` on any other pair."""
        report = validate(pair, lambda: labels) if labels else mask_validate(pair)
        assert report == per_vertex_validate(pair)
        return report

    @pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
    def test_built_w(self, k):
        W = build_W(k)
        assert self.assert_same(W.pair).ok
        assert self.assert_same(W.pair, W.labels).ok
        for view, component in zip(boundary_components(W), mask_components(W)):
            assert self.assert_same(component).ok
            assert view.report == per_vertex_validate(component)

    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_single_vector_and_single_entry_mutations(self, k):
        n = 2 * (k + 1)
        rng = random.Random(2000 + k)
        P = truncated_simplex(n, Fraction(1, 5))
        outcomes = []
        for trial in range(8):
            table = {f: list(v.entries) for f, v in eta_facet_assignment(n).items()}
            facet = rng.choice(sorted(table))
            if trial % 2:
                table[facet][rng.randrange(n - 1)] += rng.choice((-2, -1, 1, 2))
            else:
                table[facet] = [rng.randint(-2, 2) for _ in range(n - 1)]
            if not any(table[facet]):
                table[facet][0] = 1
            W = WManifold(attach(P, table, n - 1), n, Fraction(1, 5))
            report = self.assert_same(W.pair, W.labels)
            outcomes.append(report.ok)
            for fid, view in zip(("P1", "P2", "P3"), boundary_components(W)):
                self.assert_same(restrict_to_facet(W.pair, fid))
                assert view.report == per_vertex_validate(restrict_to_facet(W.pair, fid))
        assert False in outcomes

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_rank_deficient_assignments(self, k):
        n = 2 * (k + 1)
        P = truncated_simplex(n, Fraction(1, 5))
        eta = {f: v.entries for f, v in eta_facet_assignment(n).items()}
        copied = dict(eta, d1=eta["d2"])  # two facets share a vector
        assert not self.assert_same(attach(P, copied, n - 1), truncation_labels(n)).ok
        # every vector in the hyperplane x_last = 0: M has rank < n - 1, no anchor
        flat = {f: v[:-1] + (0,) if any(v[:-1]) else (1,) + (0,) * (n - 2) for f, v in eta.items()}
        report = self.assert_same(attach(P, flat, n - 1), truncation_labels(n))
        assert len(report.failures) == len(P.vertices)

    @pytest.mark.parametrize("dims", [(2,), (3,), (4,), (1, 2), (2, 2), (1, 3), (1, 1, 1), (1, 1, 2)])
    def test_random_pairs_by_corank(self, dims):
        rng = random.Random(sum(d * 10**i for i, d in enumerate(dims)))
        P, vectors = product_of_simplices(dims)
        assert len(vectors) - P.dim == len(dims)  # the co-rank
        outcomes = set()
        for trial in range(12):
            U = random_unimodular(rng, P.dim)
            table = {f: apply_matrix(U, v) for f, v in vectors.items()}
            if trial % 3:
                facet = rng.choice(sorted(table))
                vec = (0,) * P.dim
                while not any(vec):
                    vec = tuple(rng.randint(-2, 2) for _ in range(P.dim))
                table[facet] = vec
            outcomes.add(self.assert_same(attach(P, table, P.dim)).ok)
        assert outcomes == {True, False}


@st.composite
def stacked_vectors(draw):
    """(rows, r): an m x r integer matrix M with entries in [-6, 6], sometimes rank-deficient.

    The entries are drawn from [-b, b] for b in {1, 2, 6}, so that bases and
    pivots other than +-1 both occur; a zeroed or copied coordinate column,
    or fewer rows than r, makes rank M < r.
    """
    rank = draw(st.integers(1, 5))
    m = draw(st.integers(1, 7))
    bound = draw(st.sampled_from((1, 2, 6)))
    entry = st.integers(-bound, bound)
    rows = draw(st.lists(st.lists(entry, min_size=rank, max_size=rank), min_size=m, max_size=m))
    shape = draw(st.sampled_from(("free", "zero-column", "copied-column")))
    c = draw(st.integers(0, rank - 1))
    if shape == "zero-column":
        rows = [row[:c] + [0] + row[c + 1 :] for row in rows]
    elif shape == "copied-column" and rank > 1:
        source = (c + 1) % rank
        sign = draw(st.sampled_from((1, -1)))
        rows = [row[:c] + [sign * row[source]] + row[c + 1 :] for row in rows]
    return rows, rank


class TestFullCountCertificate:
    """The integer elimination against the ``Fraction`` RREF it replaced.

    The eta vectors only ever give pivot 1, so these random matrices are what
    exercise the exact divisions by earlier pivots.
    """

    @settings(max_examples=300, deadline=None)
    @given(stacked_vectors())
    @example(([[2, 1, 0], [1, 3, 1], [0, 1, 4], [1, 1, 1], [3, 0, 2]], 3))
    @example(([[4, 2], [6, 3], [1, 1]], 2))
    def test_matches_the_fraction_certificate(self, case):
        rows, rank = case
        certificate = FullCountCertificate(nonzero_pairs(rows), rank)
        oracle = FractionFullCountCertificate(rows, rank)
        assert certificate.anchor == oracle.anchor
        if oracle.anchor is None:
            assert fraction_rank(rows) < rank
            assert certificate.det == 0
        else:
            d = certificate.det
            assert abs(d) == abs(bareiss_det([list(rows[j]) for j in oracle.anchor])) > 0
            for j, coefficients in enumerate(oracle.coefficients):
                scaled = tuple(row.get(j, 0) for row in certificate.reduced)
                if j in oracle.anchor:
                    t = oracle.anchor[j]
                    assert scaled == tuple(d if s == t else 0 for s in range(rank))
                else:
                    assert scaled == tuple(d * x for x in coefficients)
        for chosen in itertools.combinations(range(len(rows)), rank):
            expected = abs(cofactor_det([rows[j] for j in chosen])) == 1
            missed = [j for j in range(len(rows)) if j not in chosen]
            assert certificate.is_unimodular(missed) == oracle.is_unimodular(chosen) == expected


class TestKeyClasses:
    """A full-count key's class, the sorted certificate classes of its rows, carries the key's verdict."""

    @settings(max_examples=300, deadline=None)
    @given(stacked_vectors())
    @example(([[1, 0], [0, 1], [1, 1], [2, 2]], 2))  # scaled free rows: both unit rows in one class
    @example(([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 1, 0]], 3))  # a repeated free row
    @example(([[int(p == q) for q in range(5)] for p in range(5)] + [[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]], 5))  # W, n = 6
    @example(([[2, 0], [0, 2], [1, 1], [3, 3]], 2))  # |d| = 4, merged
    @example(([[1, 2], [2, 4], [3, 6], [1, 2]], 2))  # rank M < r: every row its own class
    def test_a_class_shares_the_cofactor_verdict(self, case):
        rows, rank = case
        certificate = FullCountCertificate(nonzero_pairs(rows), rank)
        classes = certificate.classes
        if certificate.anchor is None:
            assert classes == list(range(len(rows)))
        verdicts: dict[tuple[int, ...], bool] = {}
        for chosen in itertools.combinations(range(len(rows)), rank):
            expected = abs(cofactor_det([rows[j] for j in chosen])) == 1
            key = tuple(sorted(classes[j] for j in range(len(rows)) if j not in chosen))
            first = certificate.first_rows(key)
            assert len(set(first)) == len(first) and sorted(classes[j] for j in first) == list(key)
            assert certificate.is_unimodular(first) == expected
            assert verdicts.setdefault(key, expected) == expected


@st.composite
def missed_rows(draw):
    """(rows, r, missed): an m x r integer matrix M with m - r in {1, 2, 3}, and m - r rows of M to leave out.

    Entries lie in [-b, b] for b in {1, 2, 6}, so 0/+-1 matrices and pivots
    other than +-1 both occur; a repeated row, a zeroed or copied column
    makes the kept rows, or all of M, rank-deficient.
    """
    rank = draw(st.integers(1, 5))
    m = rank + draw(st.integers(1, 3))
    bound = draw(st.sampled_from((1, 2, 6)))
    entry = st.integers(-bound, bound)
    rows = draw(st.lists(st.lists(entry, min_size=rank, max_size=rank), min_size=m, max_size=m))
    shape = draw(st.sampled_from(("free", "repeated-row", "zero-column", "copied-column")))
    c = draw(st.integers(0, rank - 1))
    if shape == "repeated-row":
        rows[draw(st.integers(0, m - 1))] = list(rows[draw(st.integers(0, m - 1))])
    elif shape == "zero-column":
        rows = [row[:c] + [0] + row[c + 1 :] for row in rows]
    elif shape == "copied-column" and rank > 1:
        rows = [row[:c] + [row[(c + 1) % rank]] + row[c + 1 :] for row in rows]
    missed = draw(st.lists(st.integers(0, m - 1), min_size=m - rank, max_size=m - rank, unique=True))
    return rows, rank, sorted(missed)


class TestMinorsAgainstBareiss:
    """``is_unimodular`` evaluates a minor of size 1 or 2 directly and reduces a larger one.

    Its verdict on the rows kept must be that of one Bareiss determinant of
    those rows; m - r = 3 reaches minors of size 3, the elimination path.
    """

    @settings(max_examples=400, deadline=None)
    @given(missed_rows())
    @example(([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 1]], 3, [0, 1, 2]))  # size 3, det 2
    @example(([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [0, 0, 1]], 3, [0, 1, 2]))  # size 3, det 1
    @example(([[1, 0], [0, 1], [1, 1], [1, -1]], 2, [0, 1]))  # size 2, det -2
    @example(([[1, 0], [0, 1], [1, 1], [1, 1]], 2, [0, 1]))  # size 2, repeated row
    def test_verdict_is_the_kept_rows_determinant(self, case):
        rows, rank, missed = case
        kept = [rows[j] for j in range(len(rows)) if j not in missed]
        assert FullCountCertificate(nonzero_pairs(rows), rank).is_unimodular(missed) == (abs(bareiss_det(kept)) == 1)


class TestValidateMaskMemo:
    """Which vertices share a mapped mask, the traffic ``validate``'s memo serves."""

    @staticmethod
    def mapped_masks(pair):
        P = pair.polytope
        assigned = sum(1 << j for j, f in enumerate(P.facet_ids) if f in pair.assignment)
        by_mask = {}
        for i, mask in enumerate(P.incidence):
            by_mask.setdefault(mask & assigned, []).append(i)
        return by_mask

    @pytest.mark.parametrize("k", (1, 2, 5, 12))
    def test_w_masks_are_shared_by_the_ends_of_one_root_edge(self, k):
        W = build_W(k)
        n, P = W.n, W.pair.polytope
        by_mask = self.mapped_masks(W.pair)
        assert len(P.vertices) == n * (n + 4) // 2
        assert len(by_mask) == n * (n + 4) // 4  # 195 of 390 at k = 12
        index = {v.id: j for j, v in enumerate(P.vertices)}
        root_edges = {tuple(index[end] for end in e.ends) for e in edges_of(P) if e.provenance.kind == "original"}
        assert {tuple(ends) for ends in by_mask.values()} == root_edges

    @pytest.mark.parametrize("k", (1, 2, 5))
    def test_no_mask_repeats_on_the_boundary_components(self, k):
        for component in mask_components(build_W(k)):
            by_mask = self.mapped_masks(component)
            assert len(by_mask) == len(component.polytope.vertices)


class TestRestrictToFacet:
    def test_p3_restriction_vectors(self):
        pair = w_pair(4)
        p3 = restrict_to_facet(pair, "P3")
        assert p3.boundary_facet_ids == ()
        assert p3.polytope.dim == 3
        eta = eta_standard(4)
        assert {f: v.entries for f, v in p3.assignment.items()} == {
            "d0": eta[4].entries,
            "d1": eta[3].entries,
            "d3": eta[1].entries,
            "d4": eta[0].entries,
        }

    def test_p1_restriction_matches_eta(self):
        pair = w_pair(4)
        p1 = restrict_to_facet(pair, "P1")
        eta = eta_standard(4)
        assert {f: v.entries for f, v in p1.assignment.items()} == {
            f"d{j}": eta[4 - j].entries for j in range(5)
        }

    def test_restrictions_stay_valid(self):
        for n in (4, 6, 8):
            pair = w_pair(n)
            for fid in ("P1", "P2", "P3"):
                assert mask_validate(restrict_to_facet(pair, fid)).ok

    def test_mapped_facet_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            restrict_to_facet(w_pair(4), "d0")

    def test_unmapped_neighbor_rejected(self):
        pair = attach(simplex(3), {"d0": (1, 0, 0), "d1": (0, 1, 0)}, 3)
        with pytest.raises(ValueError, match="carry no vector"):
            restrict_to_facet(pair, "d2")


class TestRhoAndDelta:
    def test_rho_n4_images(self):
        assert rho_permutation(4).images == (3, 4, 2, 0, 1)

    @pytest.mark.parametrize("n", (4, 6, 8, 10))
    def test_rho_is_involution(self, n):
        rho = rho_permutation(n)
        assert tuple(rho(rho(j)) for j in range(n + 1)) == tuple(range(n + 1))

    def test_rho_signs(self):
        assert permutation_sign(rho_permutation(4)) == 1
        assert permutation_sign(rho_permutation(6)) == -1

    def test_delta_n4_action(self):
        d = delta_matrix(4)
        assert apply_matrix(d, (1, 0, 0)) == (0, 0, 1)
        assert apply_matrix(d, (0, 1, 0)) == (0, 1, 0)
        assert apply_matrix(d, (0, 0, 1)) == (1, 0, 0)

    def test_delta_determinants(self):
        assert determinant(delta_matrix(4)) == -1
        assert determinant(delta_matrix(6)) == 1

    @pytest.mark.parametrize("n", EVEN_RANGE)
    def test_delta_is_involution(self, n):
        d = delta_matrix(n)
        assert matmul(d, d).entries == identity(n - 1).entries

    @pytest.mark.parametrize("n", EVEN_RANGE)
    def test_delta_permutes_eta_by_rho(self, n):
        eta = eta_standard(n)
        rho = rho_permutation(n)
        d = delta_matrix(n)
        for i in range(n + 1):
            assert CharVector.canon(apply_matrix(d, eta[i].entries)) == eta[rho(i)]


class TestDependenceDichotomy:
    @pytest.mark.parametrize("n", EVEN_RANGE)
    def test_full_sets_fail_single_removals_pass(self, n):
        from cpbound.zlinalg import is_direct_summand

        eta = eta_standard(n)
        half = n // 2
        low = [eta[j].entries for j in range(half + 1)]
        high = [eta[j].entries for j in range(half, n + 1)]
        assert not is_direct_summand(low, n - 1)
        assert not is_direct_summand(high, n - 1)
        for omit in range(half + 1):
            subset = [v for j, v in enumerate(low) if j != omit]
            assert is_direct_summand(subset, n - 1)
        for omit in range(len(high)):
            subset = [v for j, v in enumerate(high) if j != omit]
            assert is_direct_summand(subset, n - 1)


def views(n):
    """The boundary components of the standard W of dimension n, as views of its cut faces and their complements."""
    return boundary_components(build_W(n // 2 - 1))


class TestVerifyTranslation:
    @pytest.mark.parametrize("n", EVEN_RANGE)
    def test_translation_holds(self, n):
        p1, p2, _ = views(n)
        witness = TranslationWitness(rho_facet_bijection(n), delta_matrix(n))
        assert verify_translation(p1, p2, witness).ok

    def test_identity_delta_fails_n4(self):
        p1, p2, _ = views(4)
        witness = TranslationWitness(rho_facet_bijection(4), identity(3))
        report = verify_translation(p1, p2, witness)
        assert not report.ok
        assert report.phi_is_isomorphism
        # eta_0 = (1,0,0) on d4 lands on d1 carrying eta_3 = (0,0,1)
        assert ("d4", "d1") in report.vector_mismatches

    def test_reflexive_with_identity_witness(self):
        p1 = views(4)[0]
        witness = TranslationWitness({f: f for f in p1.facet_ids}, identity(3))
        assert verify_translation(p1, p1, witness).ok

    def test_symmetric_and_transitive(self):
        p1, p2, _ = views(6)
        witness = TranslationWitness(rho_facet_bijection(6), delta_matrix(6))
        assert verify_translation(p2, p1, inverse_witness(witness)).ok
        round_trip = compose_witnesses(inverse_witness(witness), witness)
        assert verify_translation(p1, p1, round_trip).ok

    def test_rank_mismatch_raises(self):
        p1 = views(4)[0]
        other = cp_pair(4)
        witness = TranslationWitness(
            dict(zip(sorted(p1.facet_ids), sorted(other.polytope.facet_ids))),
            identity(3),
        )
        with pytest.raises(ValueError, match="rank"):
            verify_translation(p1, other, witness)

    def test_witness_requires_unimodular_delta(self):
        with pytest.raises(ValueError, match="determinant"):
            TranslationWitness({}, from_rows([[2, 0], [0, 1]]))

    @pytest.mark.parametrize("n", EVEN_RANGE)
    def test_witness_rejects_delta_prime_with_an_entry_2(self, n):
        # Each row keeps a single entry in its own column, but not +-1: no signed permutation.
        k = n - 1
        entries = list(delta_matrix(n).entries)
        entries[(k // 2) * k + k - 1 - k // 2] = 2
        with pytest.raises(ValueError, match=r"^delta must have determinant \+-1$"):
            TranslationWitness(rho_facet_bijection(n), IntMatrix(k, k, tuple(entries)))

    @staticmethod
    def components(n):
        return views(n)[:2]

    @staticmethod
    def with_vector(pair, fid, entries):
        assignment = {**pair.assignment, fid: CharVector.canon(entries)}
        return CutPair(pair.face, pair.rest, assignment, pair.torus_rank, pair.report)

    @staticmethod
    def oracle_mismatches(pair1, pair2, w):
        """The mismatches on canonical representatives of the dense products."""
        out = []
        for fid in sorted(pair1.assignment):
            target = w.phi[fid]
            image = CharVector.canon(dense_apply_matrix(w.delta, pair1.assignment[fid].entries))
            if target not in pair2.assignment or image != pair2.assignment[target]:
                out.append((fid, target))
        return tuple(out)

    @pytest.mark.parametrize("n", EVEN_RANGE)
    def test_a_negated_image_still_matches(self, n):
        """delta' v = -t for a canonical target t is a match: vectors are equal up to sign."""
        p1, p2 = self.components(n)
        witness = TranslationWitness(rho_facet_bijection(n), delta_matrix(n))
        v = (1,) + (0,) * (n - 3) + (-1,)
        image = apply_matrix(witness.delta, v)
        assert image == tuple(-x for x in v)
        for fid in sorted(p1.assignment):
            p1v, p2v = self.with_vector(p1, fid, v), self.with_vector(p2, witness.phi[fid], image)
            assert p2v.assignment[witness.phi[fid]].entries == v
            report = verify_translation(p1v, p2v, witness)
            assert report.ok and report == verify_translation(p1, p2, witness)

    @pytest.mark.parametrize("n", EVEN_RANGE)
    def test_negated_delta_carries_every_vector_across(self, n):
        p1, p2 = self.components(n)
        d = delta_matrix(n)
        witness = TranslationWitness(rho_facet_bijection(n), IntMatrix(d.rows, d.cols, tuple(-x for x in d.entries)))
        assert verify_translation(p1, p2, witness).ok

    @pytest.mark.parametrize("n", EVEN_RANGE)
    def test_mismatches_of_a_changed_vector_match_the_dense_oracle(self, n):
        rng = random.Random(n)
        p1, p2 = self.components(n)
        witness = TranslationWitness(rho_facet_bijection(n), delta_matrix(n))
        mismatched = 0
        for fid in sorted(p1.assignment):
            entries = [0] * (n - 1)
            while not any(entries):
                entries = [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n - 1)]
            changed = self.with_vector(p1, fid, entries), self.with_vector(p2, witness.phi[fid], entries)
            for pair1, pair2 in ((changed[0], p2), (p1, changed[1])):
                report = verify_translation(pair1, pair2, witness)
                expected = self.oracle_mismatches(pair1, pair2, witness)
                assert report.vector_mismatches == expected
                assert report.ok == (not expected)
                mismatched += bool(expected)
        assert mismatched > len(p1.assignment)


class TestNormalizeSimplexPair:
    """The library normalizes the ``CutPair`` on P3; ``dense_normalize_simplex_pair`` is the general path on
    any closed simplex pair, and keeps the basis change D B whose residual image the library reads."""

    def test_standard_projective_pair_gives_identity(self):
        form = dense_normalize_simplex_pair(cp_pair(3))
        assert form.basis_change.entries == identity(3).entries
        assert form.residual_facet == "d3"
        assert form.vector_of("d3") == (1, 1, 1)
        assert all(s == 1 for _, s in form.signs)

    def test_p3_component_normalizes_to_projective_form(self):
        pair = restrict_to_facet(w_pair(4), "P3")
        form = dense_normalize_simplex_pair(pair)
        assert form.vector_of(form.residual_facet) == (1, 1, 1)
        basis = [form.vector_of(f) for f in sorted(pair.polytope.facet_ids) if f != form.residual_facet]
        assert sorted(basis) == sorted(
            tuple(1 if j == i else 0 for j in range(3)) for i in range(3)
        )
        view = normalize_simplex_pair(views(4)[2])
        assert view == form.as_simplex_normal_form()
        assert view.residual_image == ((0, 1), (1, 1), (2, 1))

    def test_round_trip(self):
        pair = restrict_to_facet(w_pair(6), "P3")
        form = dense_normalize_simplex_pair(pair)
        for fid, vec in pair.assignment.items():
            image = apply_matrix(form.basis_change, vec.entries)
            assert image == tuple(dict(form.signs)[fid] * x for x in form.vector_of(fid))

    def test_invalid_pair_rejected(self):
        rows = [[0, 1], [2, 1]]
        assert abs(cofactor_det(rows)) != 1  # fails at the vertex on facets d1, d2
        bad = attach(simplex(2), {"d0": (1, 0), "d1": (0, 1), "d2": (2, 1)}, 2)
        with pytest.raises(ValueError, match="not a valid"):
            dense_normalize_simplex_pair(bad)

    def test_sign_twisted_pair_is_valid_and_normalizes(self):
        # all vertex determinants are +-1 here, so this is a valid pair and
        # the sign can be absorbed by the basis change
        for rows in ([[1, 0], [1, -1]], [[0, 1], [1, -1]]):
            assert abs(cofactor_det(rows)) == 1
        pair = attach(simplex(2), {"d0": (1, 0), "d1": (0, 1), "d2": (1, -1)}, 2)
        assert mask_validate(pair).ok
        form = dense_normalize_simplex_pair(pair)
        assert form.vector_of("d2") == (1, 1)

    def test_non_simplex_rejected(self):
        from cpbound.polytope import product

        P = product(simplex(1), simplex(1))
        assignment = {
            "L.d0": (1, 0),
            "L.d1": (1, 0),
            "R.d0": (0, 1),
            "R.d1": (0, 1),
        }
        with pytest.raises(ValueError, match="not a combinatorial simplex"):
            dense_normalize_simplex_pair(attach(P, assignment, 2))
        with pytest.raises(ValueError, match="not a combinatorial simplex"):
            normalize_simplex_pair(views(6)[0])  # P1, a product of simplices

    def test_open_pair_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            dense_normalize_simplex_pair(w_pair(4))

    @pytest.mark.parametrize("n", (4, 6, 8))
    def test_given_report_is_read_not_recomputed(self, n):
        p3 = views(n)[2]
        expected = dense_normalize_simplex_pair(restrict_to_facet(w_pair(n), "P3"))
        assert normalize_simplex_pair(p3) == expected.as_simplex_normal_form()
        # A failing report is taken at its word: the pair is not validated again.
        failing = ValidationReport(False, p3.report.checked_vertices, (VertexCheck("v", (), (), False, "r"),))
        with pytest.raises(ValueError, match=r"not a valid characteristic pair: vertex v \(r\)"):
            normalize_simplex_pair(CutPair(p3.face, p3.rest, p3.assignment, p3.torus_rank, failing))

    def test_random_valid_simplex_pairs_normalize(self):
        rng = random.Random(42)
        for _ in range(25):
            d = rng.randint(2, 5)
            rows = [[int(i == j) for j in range(d)] for i in range(d)]
            for _ in range(8):
                i, j = rng.randrange(d), rng.randrange(d)
                if i != j:
                    c = rng.choice((-1, 1))
                    rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            signs = [rng.choice((-1, 1)) for _ in range(d)]
            residual = [sum(s * r[t] for s, r in zip(signs, rows)) for t in range(d)]
            assignment = {f"d{i}": tuple(rows[i]) for i in range(d)}
            assignment[f"d{d}"] = tuple(residual)
            pair = attach(simplex(d), assignment, d)
            assert mask_validate(pair).ok
            form = dense_normalize_simplex_pair(pair)
            for fid, vec in pair.assignment.items():
                image = apply_matrix(form.basis_change, vec.entries)
                assert image == tuple(dict(form.signs)[fid] * x for x in form.vector_of(fid))


class TestOrientationSigns:
    def test_examples(self):
        assert orientation_signs(4) == type(orientation_signs(4))(1, -1, "conjugate-CP")
        rec6 = orientation_signs(6)
        assert (rec6.sign_rho, rec6.det_delta, rec6.boundary_label) == (-1, 1, "CP")
        rec8 = orientation_signs(8)
        assert (rec8.sign_rho, rec8.det_delta, rec8.boundary_label) == (1, -1, "conjugate-CP")

    @pytest.mark.parametrize("n", EVEN_RANGE)
    def test_parity_rules(self, n):
        rec = orientation_signs(n)
        assert (rec.sign_rho == 1) == (n % 4 == 0)
        assert (rec.det_delta == -1) == (n % 4 == 0)
        assert rec.boundary_label == ("conjugate-CP" if n % 4 == 0 else "CP")


class TestCharPairJson:
    def test_round_trip(self):
        pair = w_pair(4)
        blob = charpair_to_json(pair)
        again = charpair_to_json(charpair_from_json(blob))
        assert blob == again

    def test_boundary_facets_derived_on_load(self):
        loaded = charpair_from_json(charpair_to_json(w_pair(4)))
        assert loaded.boundary_facet_ids == ("P1", "P2", "P3")
        assert validate_w(loaded).ok

    def test_canonical_sign_enforced_on_load(self):
        blob = charpair_to_json(cp_pair(3))
        blob["vectors"]["d3"] = [-1, -1, -1]
        loaded = charpair_from_json(blob)
        assert loaded.assignment["d3"].entries == (1, 1, 1)
