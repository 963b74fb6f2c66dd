import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpbound.charfn import charpair_from_json, charpair_to_json, eta_facet_assignment, validate
from cpbound import cobordism
from cpbound.cobordism import (
    BOUNDARY_FACETS,
    CellStructure,
    EulerCheck,
    WManifold,
    boundary_components,
    boundary_h_vectors,
    build_W,
    cell_stage,
    cell_structure,
    glue_report,
    glue_report_to_json,
    identify_simplex_or_product,
    root_orders,
    wmanifold_from_json,
    wmanifold_to_json,
)
from cpbound import polytope
from cpbound.polytope import (
    FUNCTIONAL_RETRY_BUDGET,
    FacetLabel,
    RealisationError,
    generate_functional,
    original_facet,
    product,
    separating_functional,
    truncated_simplex,
    vertex_indices,
)

from oracles import (
    face_from_facets,
    mask_components,
    attach,
    betti_boundary,
    cells_by_order_place,
    checked_polytope,
    closed_form_cell_structure,
    closed_form_index_counts,
    coords_by_id,
    cofactor_det,
    cut_face,
    fraction_separating_functional,
    fraction_vertex_indices,
    generator_counts,
    graph_walk_cell_structure,
    h_vector,
    label_by_isomorphism_search,
    mask_identify_simplex_or_product,
    order_vertex_indices,
    SetVertex,
    root_coords,
    simplex,
)


class TestBuildW:
    def test_k1(self):
        W = build_W(1)
        assert W.n == 4 and W.k == 1
        assert len(W.pair.polytope.facets) == 8
        assert len(W.pair.polytope.vertices) == 16
        assert W.pair.boundary_facet_ids == BOUNDARY_FACETS

    def test_k2(self):
        W = build_W(2)
        assert W.n == 6
        assert len(W.pair.polytope.facets) == 10
        assert len(W.pair.polytope.vertices) == 30

    def test_k0_rejected(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            build_W(0)

    def test_structural_validation(self):
        W = build_W(1)
        with pytest.raises(ValueError, match="torus rank"):
            WManifold(attach(W.pair.polytope, {
                f: v.entries + (0,) for f, v in eta_facet_assignment(4).items()
            }, 4), 4, Fraction(1, 5))

    def test_r1_passes_through(self):
        W = build_W(1, Fraction(1, 8))
        assert W.r1 == Fraction(1, 8)
        assert validate(W.pair, lambda: W.labels).ok


class TestBoundaryComponents:
    def test_n4_shapes(self):
        comps = boundary_components(build_W(1))
        labels = [identify_simplex_or_product(c) for c in comps]
        assert labels == ["Delta^1 x Delta^2", "Delta^1 x Delta^2", "Delta^3"]
        assert [(c.face, c.rest) for c in comps] == [((0, 1), (2, 3, 4)), ((3, 4), (0, 1, 2)), ((2,), (0, 1, 3, 4))]
        assert [len(c.face) * len(c.rest) for c in comps] == [6, 6, 4]
        assert [c.roots for c in comps] == [(0, 1, 2, 3, 4)] * 2 + [(0, 1, 3, 4)]

    def test_n6_shapes(self):
        comps = boundary_components(build_W(2))
        labels = [identify_simplex_or_product(c) for c in comps]
        assert labels == ["Delta^2 x Delta^3", "Delta^2 x Delta^3", "Delta^5"]

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_pairwise_disjoint(self, k):
        W = build_W(k)
        poly = W.pair.polytope
        seen = {}
        for f in BOUNDARY_FACETS:
            for v in poly.facet_vertices(f):
                assert v not in seen
                seen[v] = f
        assert len(seen) == len(poly.vertices)

    def test_components_are_closed_and_valid(self):
        for comp in boundary_components(build_W(2)):
            assert comp.torus_rank == len(comp.face) + len(comp.rest) - 2  # a closed pair's rank is its dimension
            assert comp.report.ok


def relabel_facets(P, rng):
    """P with its facet ids renamed so that their sorted order is shuffled."""
    order = list(range(len(P.facet_ids)))
    rng.shuffle(order)
    rename = {f: f"x{i:02d}" for f, i in zip(P.facet_ids, order)}
    coord = coords_by_id(P)
    return checked_polytope(
        P.dim,
        [FacetLabel(rename[f.id], f.provenance) for f in P.facets],
        [SetVertex(v.id, frozenset(rename[f] for f in v.facet_ids), coord[v.id]) for v in P.vertices],
    )


def incidence_polytope(dim, facet_count, missing_sets):
    """A combinatorial polytope whose vertices miss the given facet sets, or None."""
    facets = [f"f{i}" for i in range(facet_count)]
    vertices = [
        SetVertex(f"v{i:02d}", frozenset(facets) - {facets[j] for j in miss})
        for i, miss in enumerate(missing_sets)
    ]
    try:
        return checked_polytope(dim, [FacetLabel(f, original_facet(i)) for i, f in enumerate(facets)], vertices)
    except ValueError:
        return None


class TestRecognizerAgainstOracle:
    """The missing-facet witness on a polytope's masks, the oracle of the boundary components' labels and
    blocks, decides what the facet-bijection search decides."""

    @staticmethod
    def agree(P):
        label = mask_identify_simplex_or_product(P)
        assert label == label_by_isomorphism_search(P)
        return label

    @pytest.mark.parametrize("d", range(1, 9))
    def test_simplices(self, d):
        assert self.agree(simplex(d)) == f"Delta^{d}"

    @pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 6) for b in range(a, 6)])
    def test_relabelled_products(self, a, b):
        P = relabel_facets(product(simplex(a), simplex(b)), random.Random(10 * a + b))
        assert self.agree(P) == f"Delta^{a} x Delta^{b}"
        assert self.agree(relabel_facets(product(simplex(b), simplex(a)), random.Random(a))) == (
            f"Delta^{a} x Delta^{b}"
        )

    def test_cube_and_pentagon_unrecognized(self):
        cube = product(product(simplex(1), simplex(1)), simplex(1))
        square = product(simplex(1), simplex(1))
        corner = square.vertices[0]
        pentagon = cut_face(
            square, face_from_facets(square, sorted(corner.facet_ids)), root_coords(square), Fraction(1, 5)
        )
        assert len(pentagon.facets) == 5
        assert self.agree(cube) is None
        assert self.agree(pentagon) is None

    @pytest.mark.parametrize("n", (4, 6))
    def test_truncated_simplex_unrecognized(self, n):
        assert self.agree(truncated_simplex(n)) is None

    def test_product_missing_a_vertex_unrecognized(self):
        P = product(simplex(2), simplex(2))
        kept = P.vertices[1:]
        Q = checked_polytope(P.dim, P.facets, kept)
        assert self.agree(Q) is None

    def test_odd_cycle_with_product_edge_count_unrecognized(self):
        # Ten = 2 * 5 missing pairs on seven facets, triangle-free, with the
        # odd cycle f0-f5-f6-f2-f4: only the bipartite test rejects it.
        pairs = [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (2, 4), (2, 6), (3, 4), (3, 6), (5, 6)]
        P = incidence_polytope(5, 7, pairs)
        assert P is not None
        assert self.agree(P) is None

    @pytest.mark.parametrize("k", range(1, 6))
    def test_round_tripped_boundary_components(self, k):
        n = 2 * (k + 1)
        expected = [f"Delta^{n // 2 - 1} x Delta^{n // 2}"] * 2 + [f"Delta^{n - 1}"]
        components = [charpair_from_json(charpair_to_json(c)) for c in mask_components(build_W(k))]
        assert [self.agree(c.polytope) for c in components] == expected

    def test_random_simplex_incidences(self):
        # Vertices missing one facet each, from a random subset of the d+1 choices.
        rng = random.Random(1)
        labels = set()
        for _ in range(200):
            d = rng.randint(2, 5)
            missing = rng.sample([(j,) for j in range(d + 1)], rng.randint(1, d + 1))
            P = incidence_polytope(d, d + 1, missing)
            if P is not None:
                labels.add(self.agree(P))
        assert None in labels and "Delta^5" in labels

    def test_perturbed_product_incidences(self):
        # Missing pairs of Delta^a x Delta^b on shuffled facets with up to three
        # pairs toggled: odd cycles, incomplete and disconnected bipartite graphs.
        rng = random.Random(2)
        labels = set()
        for _ in range(300):
            d = rng.randint(2, 6)
            a = rng.randint(1, d - 1)
            f = list(range(d + 2))
            rng.shuffle(f)
            pairs = {tuple(sorted((f[i], f[a + 1 + j]))) for i in range(a + 1) for j in range(d - a + 1)}
            pool = list(itertools.combinations(range(d + 2), 2))
            for _ in range(rng.randint(0, 3)):
                pairs ^= {rng.choice(pool)}
            P = incidence_polytope(d, d + 2, sorted(pairs))
            if P is not None:
                labels.add(self.agree(P))
        assert None in labels and "Delta^3 x Delta^3" in labels


def first_order(W, seed=0):
    """The first root order ``cell_stage`` walks under ``seed``."""
    return next(root_orders(W.n, seed))


class TestCellStructure:
    def test_top_cell_unique(self):
        for k in (1, 2):
            W = build_W(k)
            cs = cell_structure(W, first_order(W))
            assert cs.index_counts()[W.n] == 1

    @pytest.mark.parametrize("n", (4, 6, 8, 10, 12))
    def test_total_matches_formula(self, n):
        W = build_W(n // 2 - 1)
        assert sum(cell_structure(W, first_order(W)).index_counts().values()) == n * (n + 4) // 4

    def test_counts_stable_across_seeds_and_depths(self):
        for n in (4, 6):
            baseline = None
            for r1 in (Fraction(1, 5), Fraction(1, 6), Fraction(1, 8)):
                W = build_W(n // 2 - 1, r1)
                for order in itertools.islice(root_orders(n, 0), 5):
                    counts = cell_structure(W, order).cell_counts()
                    if baseline is None:
                        baseline = counts
                    assert counts == baseline

    def test_minimum_vertex_contributes_nothing(self):
        W = build_W(1)
        order = first_order(W, 3)
        ind = order_vertex_indices(W.pair.polytope, order)
        (bottom,) = [v for v, i in ind.items() if i == 0]
        for oracle in (graph_walk_cell_structure, closed_form_cell_structure):
            assert bottom not in {g.vertex for g in oracle(W, order)}
        assert 0 not in cell_structure(W, order).index_counts()

    def test_generators_have_positive_index(self):
        W = build_W(2)
        order = first_order(W, 1)
        ind = order_vertex_indices(W.pair.polytope, order)
        for oracle in (graph_walk_cell_structure, closed_form_cell_structure):
            assert all(g.index == ind[g.vertex] >= 1 for g in oracle(W, order))
        cs = cell_structure(W, order)
        assert cs.counts == tuple(sorted(cs.counts))
        assert all(j >= 1 and count >= 1 for j, count in cs.counts)
        assert cs.zero_cells == 1

    def test_frozen_n4_counts(self):
        # Regression pin: computed by this pipeline, cross-checked by the
        # Euler identity and by seed/depth invariance above.
        W = build_W(1)
        assert cell_structure(W, first_order(W)).cell_counts() == {1: 2, 3: 3, 5: 2, 7: 1}

    @pytest.mark.parametrize("r1", [Fraction(1, 5), Fraction(2, 9), Fraction(3, 13), Fraction(1, 7)])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_closed_form_matches_the_graph_walk(self, k, r1):
        built = build_W(k, r1)
        loaded = wmanifold_from_json(json.loads(json.dumps(wmanifold_to_json(built))))
        for W in (built, loaded):
            # The library's own orders: the first of seeds 0..11, and seed 0's first two extra orders.
            orders = [first_order(W, seed) for seed in range(12)] + list(itertools.islice(root_orders(W.n, 0), 1, 3))
            for order in orders:
                walked = graph_walk_cell_structure(W, order)
                # The oracles agree generator by generator, by index and vertex id, in vertex order.
                assert closed_form_cell_structure(W, order) == walked
                assert cell_structure(W, order).index_counts() == generator_counts(walked)

    @pytest.mark.parametrize("k", range(1, 65))
    def test_counts_match_the_functional_free_closed_form(self, k):
        W = build_W(k)
        expected = closed_form_index_counts(W.n)
        assert expected[W.n] == 1 and sum(expected.values()) == W.n * (W.n + 4) // 4
        if k <= 8:
            assert expected == generator_counts(graph_walk_cell_structure(W, first_order(W)))
        if k <= 2:  # every order of the n + 1 roots: 120 at k = 1, 5040 at k = 2
            orders = itertools.permutations(range(W.n + 1))
        else:  # the library's orders under seeds of every sign and size, and orders drawn apart from it
            rng = random.Random(k)
            orders = [rng.sample(range(W.n + 1), W.n + 1) for _ in range(8)]
            for seed in (0, 1, -k, 2**64 + k):
                orders += itertools.islice(root_orders(W.n, seed), 4)
        for order in orders:
            assert cell_structure(W, order).index_counts() == expected

    @pytest.mark.parametrize("k", (32, 64))
    def test_interval_counts_match_the_closed_form_at_large_k(self, k):
        W = build_W(k)
        for seed in range(4):
            for order in itertools.islice(root_orders(W.n, seed), 2):
                expected = generator_counts(closed_form_cell_structure(W, order))
                assert cell_structure(W, order).index_counts() == expected


class TestRootOrders:
    """The orders ``cell_stage`` walks: permutations of the roots, the same under the same seed."""

    SEEDS = (0, 1, 7, -1, -7, 2**63, 2**64, 2**64 + 1, -(2**64) - 3, 2**200 + 5)

    @pytest.mark.parametrize("n", (4, 6, 22, 130))
    def test_each_order_is_a_permutation_and_repeats_under_its_seed(self, n):
        for seed in self.SEEDS:
            orders = list(itertools.islice(root_orders(n, seed), 6))
            assert all(sorted(order) == list(range(n + 1)) for order in orders)
            assert orders == list(itertools.islice(root_orders(n, seed), 6))
        firsts = {tuple(next(root_orders(n, seed))) for seed in self.SEEDS if seed >= 0}
        assert len(firsts) > 1  # the seed picks the generator

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40).map(lambda h: 2 * h + 2), seed=st.integers(-(2**80), 2**80), count=st.integers(1, 6))
    def test_sampled_seeds(self, n, seed, count):
        orders = list(itertools.islice(root_orders(n, seed), count))
        assert all(sorted(order) == list(range(n + 1)) for order in orders)
        assert orders == list(itertools.islice(root_orders(n, seed), count))

    @pytest.mark.parametrize("seed,extra", [(0, 0), (5, 3), (-3, 2), (2**64 + 9, 4)])
    def test_cell_stage_walks_the_orders_of_its_seed_in_turn(self, monkeypatch, seed, extra):
        W = build_W(3)
        walked = []
        real = cobordism.cell_structure

        def recording(W, order):
            walked.append(list(order))
            return real(W, order)

        monkeypatch.setattr(cobordism, "cell_structure", recording)
        stage = cell_stage(W, seed, extra)
        assert walked == list(itertools.islice(root_orders(W.n, seed), 1 + extra))
        assert stage.stable and stage.structure == real(W, walked[0])


class TestHomology:
    def test_n4_table(self):
        table = cell_stage(build_W(1), 0).homology
        assert table.rank(7) == 1
        assert table.rank(0) == 0
        assert table.paper_h0_discrepancy
        nonzero = {d for d, r in table.ranks if r}
        assert nonzero <= {1, 3, 5, 7}

    def test_n6_top_rank(self):
        table = cell_stage(build_W(2), 0).homology
        assert table.rank(11) == 1
        assert all(d % 2 == 1 for d, r in table.ranks if r)

    def test_even_degrees_are_zero(self):
        table = cell_stage(build_W(1), 0).homology
        for d in range(0, 8, 2):
            assert table.rank(d) == 0


class TestEulerCheck:
    @pytest.mark.parametrize(
        "n,expected", [(4, 8), (6, 15), (8, 24), (10, 35), (12, 48)]
    )
    def test_both_sides_agree(self, n, expected):
        chk = cell_stage(build_W(n // 2 - 1), 0).euler
        assert chk.ok
        assert chk.cell_total == expected
        assert chk.half_boundary_vertices == expected
        assert expected == n * (n + 4) // 4


def moved_vertex_polytope(index, coord):
    """The polytope of the k = 1 certificate with one vertex moved, which no ``WManifold`` accepts."""
    data = wmanifold_to_json(build_W(1))
    data["pair"]["polytope"]["coords"][index] = coord
    return charpair_from_json(data["pair"]).polytope


# Seed 0 draws a clean structure on both; seed 1 is degenerate on the first
# and gives other counts on the second, whose seed 2 is then degenerate.
DEGENERATE_AT_SEED_1 = (4, ["14/4", "-15/1", "0/5", "11/1", "-1/5"])
VARIES_AT_SEED_1 = (3, ["-6/3", "-10/3", "7/1", "-14/2", "-6/1"])
DEGENERATE = ValueError("index profile is degenerate: expected a unique source and sink")


def fewer_cells(structure):
    """A cell structure whose counts differ from ``structure``'s: its top index is dropped."""
    return CellStructure(structure.n, structure.counts[:-1])


class TestCellStage:
    @pytest.mark.parametrize("k,extra", [(1, 0), (2, 3), (3, 1)])
    def test_reports_the_seed_structure(self, k, extra):
        W = build_W(k)
        stage = cell_stage(W, 2, extra)
        structure = cell_structure(W, first_order(W, 2))
        assert stage.structure == structure
        assert stage.counts == structure.cell_counts()
        assert stage.stable and stage.extra_error is None
        assert stage.homology.ranks == ((0, 0),) + tuple(sorted(structure.cell_counts().items()))
        assert stage.euler == EulerCheck(sum(structure.index_counts().values()), W.n * (W.n + 4) // 4)

    def test_seed_failure_is_raised(self, monkeypatch):
        # A failure on the first order is raised.
        W = build_W(1)
        cells_by_order_place(monkeypatch, {0: AssertionError("expected exactly one top-dimensional cell")})
        with pytest.raises(AssertionError, match="expected exactly one top-dimensional cell"):
            cell_stage(W, 0, 2)

    def test_extra_seed_failure_is_kept(self, monkeypatch):
        # A failure on an extra order, the third one walked, is kept, and no fourth order is walked.
        W = build_W(1)
        cells_by_order_place(monkeypatch, {2: DEGENERATE, 3: AssertionError("walked after a failure")})
        stage = cell_stage(W, 0, 3)
        assert stage.stable
        assert stage.extra_error is DEGENERATE
        assert stage.counts == cell_structure(W, first_order(W)).cell_counts()

        report = glue_report(W, 0, extra_seeds=3)
        checks = {c.name: c for c in report.checks}
        assert not checks["cell-structure"].passed
        assert checks["cell-structure"].details == str(DEGENERATE)
        assert checks["euler-cross-check"].passed
        assert report.cell_counts == stage.counts and report.homology is None

    def test_disagreement_comes_before_a_later_failure(self, monkeypatch):
        # Other counts on the second order, then a failure on the third.
        W = build_W(1)
        cells_by_order_place(monkeypatch, {1: fewer_cells, 2: DEGENERATE})
        stage = cell_stage(W, 0, 1)
        assert not stage.stable and stage.extra_error is None
        stage = cell_stage(W, 0, 3)
        assert not stage.stable and stage.extra_error is DEGENERATE
        assert cell_stage(W, 1, 0).stable  # one order alone never disagrees

        report = glue_report(W, 0, extra_seeds=1)
        checks = {c.name: c for c in report.checks}
        assert not checks["cell-structure"].passed
        assert checks["cell-structure"].details.endswith("; counts varied across seeds")


class TestRealisation:
    """Every W is the truncated simplex: moved vertices and relabelled facets are not loaded."""

    @pytest.mark.parametrize(
        "moved,message",
        [
            (DEGENERATE_AT_SEED_1, "vertex v04 is not A0|d3 of the truncated 4-simplex at r1 = 1/5: "
             "coordinate 0 is 7/2, expected 4/5"),
            (VARIES_AT_SEED_1, "vertex v03 is not A0|d4 of the truncated 4-simplex at r1 = 1/5: "
             "coordinate 0 is -2/1, expected 4/5"),
        ],
        ids=["degenerate", "varies"],
    )
    def test_moved_vertex_is_rejected(self, moved, message):
        index, coord = moved
        data = wmanifold_to_json(build_W(1))
        data["pair"]["polytope"]["coords"][index] = coord
        with pytest.raises(RealisationError) as error:
            wmanifold_from_json(data)
        assert str(error.value) == message

    def test_p3_as_original_facet_is_rejected(self):
        data = wmanifold_to_json(build_W(1))
        for facet in data["pair"]["polytope"]["facets"]:
            if facet["id"] == "P3":
                facet["provenance"] = {"kind": "original", "index": 99}
        with pytest.raises(RealisationError) as error:
            wmanifold_from_json(data)
        assert str(error.value) == "facet P3 has provenance original 99, expected cut {d0, d1, d3, d4}"

    def test_built_w_at_another_depth_is_rejected(self):
        W = build_W(1, Fraction(1, 6))
        with pytest.raises(RealisationError, match="at r1 = 1/5: coordinate 0 is 5/6, expected 4/5"):
            WManifold(W.pair, 4, Fraction(1, 5))

    @pytest.mark.parametrize("k", (1, 2, 5))
    def test_labels_of_built_and_loaded_w(self, k):
        W = build_W(k)
        assert [f"A{i}|d{m}" for i, m, _ in W.labels] == [v.id for v in W.pair.polytope.vertices]
        for v, (_, _, cut) in zip(W.pair.polytope.vertices, W.labels):
            assert BOUNDARY_FACETS[cut] in v.facet_ids
        loaded = wmanifold_from_json(json.loads(json.dumps(wmanifold_to_json(W))))
        # The loaded vertices are the built ones in order of their sorted facet ids.
        order = sorted(W.pair.polytope.vertices, key=lambda v: sorted(v.facet_ids))
        assert loaded.labels == tuple(W.labels[W.pair.polytope.vertices.index(v)] for v in order)


# Vertex 3 moved onto vertex 4: no functional separates the vertices.
COINCIDENT = (3, wmanifold_to_json(build_W(1))["pair"]["polytope"]["coords"][4])


def outcome(f, *args):
    """The result of f, or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


class TestIntegerFunctionals:
    """Integer evaluation over the common denominator q against the Fraction oracle."""

    @pytest.fixture
    def draws(self, monkeypatch):
        made = []
        original = polytope._scaled_values

        def counting(P, zeta):
            made.append(zeta)
            return original(P, zeta)

        monkeypatch.setattr(polytope, "_scaled_values", counting)
        return made

    @staticmethod
    def check(P, seed, draws):
        coord = coords_by_id(P)
        q = math.lcm(*(x.denominator for row in coord.values() for x in row))
        assert P.integer_coords == {vid: tuple(q * x for x in row) for vid, row in coord.items()}
        draws.clear()
        try:
            zeta, values, n_draws = fraction_separating_functional(P, seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                separating_functional(P, seed)
            assert len(draws) == FUNCTIONAL_RETRY_BUDGET
            return
        got_zeta, got_values = separating_functional(P, seed)
        assert len(draws) == n_draws
        assert got_zeta == zeta
        assert got_values == {vid: q * x for vid, x in values.items()}
        expected = outcome(fraction_vertex_indices, P, zeta)
        assert outcome(vertex_indices, P, zeta) == expected
        if isinstance(expected, dict):
            expected = tuple(list(expected.values()).count(i) for i in range(P.dim + 1))
        assert outcome(h_vector, P, zeta) == expected

    @pytest.mark.parametrize("r1", [Fraction(1, 5), Fraction(2, 9), Fraction(3, 13), Fraction(1, 7)])
    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_truncated_simplices(self, draws, k, r1):
        P = truncated_simplex(2 * (k + 1), r1)
        for seed in range(10):
            self.check(P, seed, draws)

    @pytest.mark.parametrize(
        "moved", [DEGENERATE_AT_SEED_1, VARIES_AT_SEED_1, COINCIDENT], ids=["degenerate", "varies", "coincident"]
    )
    def test_loaded_moved_vertex_certificates(self, draws, moved):
        P = moved_vertex_polytope(*moved)
        for seed in range(10):
            self.check(P, seed, draws)

    def test_the_moved_vertex_cases_reach_both_errors(self):
        P = moved_vertex_polytope(*DEGENERATE_AT_SEED_1)
        zeta = fraction_separating_functional(P, 1)[0]
        assert "index profile is degenerate" in outcome(fraction_vertex_indices, P, zeta)
        P = moved_vertex_polytope(*COINCIDENT)
        assert "coordinates are degenerate" in outcome(fraction_separating_functional, P, 0)


def graph_walk_h_vectors(W, seed):
    """The h-vectors ``cpbound boundary`` printed before: each component's indices under its own functional."""
    return tuple(h_vector(c.polytope, generate_functional(c.polytope, seed)) for c in mask_components(W))


class TestBoundaryHVectors:
    """The h-vectors written from the cut faces equal the graph walk on each component's edges and coordinates."""

    @pytest.mark.parametrize("n", range(4, 42, 2))
    def test_every_even_n_at_seed_0(self, n):
        W = build_W(n // 2 - 1)
        assert boundary_h_vectors(W) == graph_walk_h_vectors(W, 0)

    @settings(max_examples=100, deadline=None)
    @given(
        half=st.integers(2, 20),
        r1=st.sampled_from((Fraction(1, 5), Fraction(1, 7), Fraction(2, 9))),
        seed=st.integers(0, 11),
        loaded=st.booleans(),
    )
    def test_sampled_sizes_depths_seeds_and_loads(self, half, r1, seed, loaded):
        # The graph walk draws its own functional under each seed; the h-vectors draw none.
        W = build_W(half - 1, r1)
        if loaded:
            W = wmanifold_from_json(json.loads(json.dumps(wmanifold_to_json(W))))
        assert boundary_h_vectors(W) == graph_walk_h_vectors(W, seed)


class TestBettiBoundary:
    def test_projective_component(self):
        comps = mask_components(build_W(1))
        betti = betti_boundary(comps[2], 0)
        assert betti == {0: 1, 2: 1, 4: 1, 6: 1}

    def test_prism_component(self):
        comps = mask_components(build_W(1))
        betti = betti_boundary(comps[0], 0)
        assert betti == {0: 1, 2: 2, 4: 2, 6: 1}

    def test_total_is_vertex_count(self):
        for comp in mask_components(build_W(2)):
            betti = betti_boundary(comp, 0)
            assert sum(betti.values()) == len(comp.polytope.vertices)

    def test_open_pair_rejected(self):
        with pytest.raises(ValueError, match="closed"):
            betti_boundary(build_W(1).pair, 0)


class TestGlueReport:
    @pytest.mark.parametrize("k", (1, 2, 3, 4, 5))
    def test_pipeline_passes(self, k):
        report = glue_report(build_W(k), 0)
        assert report.passed
        expected = "conjugate-CP" if (2 * (k + 1)) % 4 == 0 else "CP"
        assert report.orientation.boundary_label == expected
        assert report.failed_checks() == ()

    def test_sabotaged_pair_detected(self):
        n = 4
        P = truncated_simplex(n, Fraction(1, 5))
        table = {f: v.entries for f, v in eta_facet_assignment(n).items()}
        table["d3"] = (1, 0, 0)
        W = WManifold(attach(P, table, 3), n, Fraction(1, 5))
        report = glue_report(W, 0)
        assert not report.passed
        assert "w-validity" in report.failed_checks()

    def test_random_mutations_all_detected(self):
        rng = random.Random(2718)
        n = 4
        P = truncated_simplex(n, Fraction(1, 5))
        base = {f: v.entries for f, v in eta_facet_assignment(n).items()}
        detected = 0
        attempts = 0
        while detected < 20 and attempts < 500:
            attempts += 1
            table = dict(base)
            facet = rng.choice(sorted(base))
            vec = tuple(rng.randint(-2, 2) for _ in range(3))
            if not any(vec) or vec == base[facet]:
                continue
            table[facet] = vec
            pair = attach(P, table, 3)
            # oracle: the mutation must break |det| = 1 at some vertex
            breaks = False
            for v in P.vertices:
                mapped = sorted(f for f in v.facet_ids if f in pair.assignment)
                rows = [list(pair.assignment[f].entries) for f in mapped]
                if abs(cofactor_det(rows)) != 1:
                    breaks = True
                    break
            if not breaks:
                continue
            W = WManifold(pair, n, Fraction(1, 5))
            assert not glue_report(W, 0).passed
            assert not validate(pair, lambda: W.labels).ok
            detected += 1
        assert detected >= 20

    def test_report_json_shape(self):
        report = glue_report(build_W(1), 0, extra_seeds=2)
        blob = glue_report_to_json(report)
        assert set(blob) == {
            "n",
            "k",
            "checks",
            "cells",
            "homology",
            "orientation",
            "boundary_label",
            "paper_H0_discrepancy",
        }
        assert blob["n"] == 4 and blob["k"] == 1
        assert blob["boundary_label"] == "conjugate-CP"
        assert blob["paper_H0_discrepancy"] is True
        assert blob["orientation"] == {"sign_rho": 1, "det_delta": -1}
        assert blob["cells"] == {"1": 2, "3": 3, "5": 2, "7": 1}
        assert blob["homology"]["0"] == 0
        assert blob["homology"]["7"] == 1
        assert all(c["pass"] for c in blob["checks"])


class TestWManifoldJson:
    def test_round_trip(self):
        W = build_W(1, Fraction(1, 6))
        blob = wmanifold_to_json(W)
        again = wmanifold_to_json(wmanifold_from_json(blob))
        assert blob == again

    def test_loaded_manifold_certifies(self):
        W = wmanifold_from_json(wmanifold_to_json(build_W(2)))
        assert W.n == 6 and W.r1 == Fraction(1, 5)
        assert glue_report(W, 0).passed
