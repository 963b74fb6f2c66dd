import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cpbound import polytope
from cpbound.cobordism import build_W, wmanifold_from_json, wmanifold_to_json
from cpbound.polytope import (
    FUNCTIONAL_RETRY_BUDGET,
    FacetLabel,
    LinearFunctional,
    RealisationError,
    SimplePolytope,
    Vertex,
    combinatorially_isomorphic,
    decode_truncated_simplex,
    face_as_polytope,
    functional_draws,
    generate_functional,
    original_facet,
    polytope_from_json,
    polytope_to_json,
    product,
    separating_functional,
    truncated_simplex,
    vertex_indices,
)
from cpbound.polytope import _derive_edges

from oracles import (
    FaceRef,
    face_from_facets,
    mask_components,
    _is_connected,
    check_geometry,
    checked_polytope,
    cut_face,
    edge_between,
    edges_of,
    frozenset_derive_edges,
    frozenset_edges,
    h_vector,
    original_edge,
    product_h_vector,
    randrange_draws,
    SetVertex,
    closed_form_coords,
    coords_by_id,
    facet_sets,
    root_coords,
    simplex,
    three_cut_truncated_simplex,
)

EVEN_RANGE = (4, 6, 8, 10, 12)


def front_face(P, n):
    return face_from_facets(P, [f"d{j}" for j in range(n // 2, n + 1)])


class TestSimplex:
    @pytest.mark.parametrize("n,facets,vertices,edges", [(1, 2, 2, 1), (2, 3, 3, 3), (4, 5, 5, 10)])
    def test_counts(self, n, facets, vertices, edges):
        P = simplex(n)
        assert (len(P.facets), len(P.vertices), len(edges_of(P))) == (facets, vertices, edges)

    def test_coordinates_are_standard_basis(self):
        P = simplex(3)
        assert coords_by_id(P)["A2"] == (0, 0, 1, 0)
        check_geometry(P)

    def test_all_edges_original(self):
        P = simplex(4)
        assert all(e.provenance.kind == "original" for e in edges_of(P))
        assert edge_between(P, "A0", "A3").provenance.ancestors == ("A0", "A3")

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            simplex(0)


class TestFaceFromFacets:
    def test_front_face_of_4_simplex(self):
        P = simplex(4)
        F = face_from_facets(P, ["d2", "d3", "d4"])
        assert F.vertex_ids == ("A0", "A1")

    def test_single_facet_is_a_face(self):
        P = simplex(3)
        F = face_from_facets(P, ["d1"])
        assert set(F.vertex_ids) == {"A0", "A2", "A3"}

    def test_empty_intersection(self):
        P = simplex(4)
        with pytest.raises(ValueError, match="empty intersection"):
            face_from_facets(P, [f"d{j}" for j in range(5)])

    def test_unknown_facet(self):
        with pytest.raises(ValueError, match="unknown"):
            face_from_facets(simplex(3), ["nope"])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            face_from_facets(simplex(3), [])


class TestCutFace:
    def test_triangle_vertex_cut_gives_quadrilateral(self):
        P = simplex(2)
        F = face_from_facets(P, ["d1", "d2"])  # the vertex A0
        Q = cut_face(P, F, root_coords(P), Fraction(1, 5))
        assert len(Q.facets) == 4 and len(Q.vertices) == 4 and len(edges_of(Q)) == 4

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_vertex_cut_new_facet_is_simplex(self, n):
        P = simplex(n)
        F = face_from_facets(P, [f"d{j}" for j in range(n + 1) if j != 0])  # vertex A0
        Q = cut_face(P, F, root_coords(P), Fraction(1, 5), "new")
        new_face = face_from_facets(Q, ["new"])
        assert len(new_face.vertex_ids) == n
        sub = face_as_polytope(Q, new_face.facet_ids)
        assert combinatorially_isomorphic(sub, simplex(n - 1)) is not None

    def test_front_face_cut_of_4_simplex(self):
        P = simplex(4)
        Q = cut_face(P, front_face(P, 4), root_coords(P), Fraction(1, 5), "new")
        new_face = face_from_facets(Q, ["new"])
        assert len(new_face.vertex_ids) == 6  # |V(F)| * codim = 2 * 3
        sub = face_as_polytope(Q, new_face.facet_ids)
        assert combinatorially_isomorphic(sub, product(simplex(1), simplex(2))) is not None

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_face_of_simplices_up_to_dim_8(self, n):
        # Exhaustive over all proper faces; the constructor enforces the
        # simplicity invariants, so surviving construction is the assertion.
        P = simplex(n)
        ids = list(P.facet_ids)
        for codim in range(1, n + 1):
            for S in itertools.combinations(ids, codim):
                F = face_from_facets(P, S)
                Q = cut_face(P, F, root_coords(P), Fraction(1, 5))
                assert len(Q.vertices) == (n + 1) - len(F.vertex_ids) + len(F.vertex_ids) * codim
                new_id = next(f.id for f in Q.facets if f.provenance.kind == "cut")
                assert len(Q.facet_vertices(new_id)) == len(F.vertex_ids) * codim

    def test_new_facet_is_face_times_simplex(self):
        # codim >= 2 and positive-dimensional face
        P = simplex(5)
        F = face_from_facets(P, ["d3", "d4", "d5"])
        face_poly = face_as_polytope(P, F.facet_ids)
        Q = cut_face(P, F, root_coords(P), Fraction(1, 6), "new")
        sub = face_as_polytope(Q, ["new"])
        assert combinatorially_isomorphic(sub, product(face_poly, simplex(2))) is not None

    def test_codim_one_cut_keeps_combinatorics(self):
        P = simplex(3)
        F = face_from_facets(P, ["d0"])
        Q = cut_face(P, F, root_coords(P), Fraction(1, 5))
        assert combinatorially_isomorphic(P, Q) is not None
        assert "d0" not in Q.facet_ids  # consumed by the cut

    def test_whole_polytope_rejected(self):
        P = simplex(2)
        fake = FaceRef(frozenset({"d0"}), tuple(v.id for v in P.vertices))
        with pytest.raises(ValueError, match="whole polytope"):
            cut_face(P, fake, root_coords(P), Fraction(1, 5))

    def test_r1_range(self):
        P = simplex(3)
        F = face_from_facets(P, ["d1", "d2", "d3"])
        for bad in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(-1, 5)):
            with pytest.raises(ValueError, match="r1"):
                cut_face(P, F, root_coords(P), bad)

    def test_previously_cut_vertex_rejected(self):
        P = simplex(2)
        Q = cut_face(P, face_from_facets(P, ["d1", "d2"]), root_coords(P), Fraction(1, 5), "c")
        again = face_from_facets(Q, ["d2", "c"])
        assert again.vertex_ids == ("A0|d1",)
        with pytest.raises(ValueError, match="earlier cut"):
            cut_face(Q, again, root_coords(P), Fraction(1, 5))


class TestTruncatedSimplex:
    def test_n4_counts(self):
        P = truncated_simplex(4, Fraction(1, 5))
        assert len(P.facets) == 8
        assert len(P.vertices) == 16
        assert len(P.facet_vertices("P1")) == 6
        assert len(P.facet_vertices("P2")) == 6
        assert len(P.facet_vertices("P3")) == 4

    def test_n6_counts(self):
        P = truncated_simplex(6, Fraction(1, 5))
        assert len(P.facets) == 10
        assert len(P.vertices) == 30

    @pytest.mark.parametrize("n", EVEN_RANGE)
    def test_vertex_count_formula(self, n):
        for r1 in (Fraction(1, 5), Fraction(1, 8)):
            P = truncated_simplex(n, r1)
            assert len(P.vertices) == n * (n + 4) // 2

    def test_known_coordinate(self):
        # The vertex cut from A2 towards A0 sits on the third hyperplane.
        P = truncated_simplex(4, Fraction(1, 5))
        expected = (Fraction(1, 5), Fraction(0), Fraction(4, 5), Fraction(0), Fraction(0))
        assert expected in P.coords()
        assert coords_by_id(P)["A2|d0"] == expected

    @pytest.mark.parametrize("n", (4, 6, 8))
    def test_each_vertex_on_exactly_one_cut_facet(self, n):
        P = truncated_simplex(n, Fraction(1, 5))
        for v in P.vertices:
            assert len(v.facet_ids & {"P1", "P2", "P3"}) == 1

    @pytest.mark.parametrize("n", (4, 6, 8))
    def test_each_vertex_has_one_original_edge(self, n):
        P = truncated_simplex(n, Fraction(1, 5))
        count = {v.id: 0 for v in P.vertices}
        ancestors = []
        for e in edges_of(P):
            if e.provenance.kind == "original":
                count[e.ends[0]] += 1
                count[e.ends[1]] += 1
                ancestors.append(e.provenance.ancestors)
        assert all(c == 1 for c in count.values())
        assert len(ancestors) == len(set(ancestors))  # distinct root edges
        assert len(ancestors) == n * (n + 4) // 4

    @pytest.mark.parametrize("n", (4, 6))
    def test_vertices_sit_exactly_on_their_hyperplanes(self, n):
        r1 = Fraction(1, 5)
        P = truncated_simplex(n, r1)
        half = n // 2

        def satisfied(coord):
            out = set()
            for j in range(n + 1):
                if coord[j] == 0:
                    out.add(f"d{j}")
            if sum(coord[half:]) == r1:
                out.add("P1")
            if sum(coord[: half + 1]) == r1:
                out.add("P2")
            if coord[half] == 1 - r1:
                out.add("P3")
            return out

        for v, coord in zip(P.vertices, P.coords()):
            assert satisfied(coord) == set(v.facet_ids)

    def test_geometry_checks_pass(self):
        for n in (4, 6):
            check_geometry(truncated_simplex(n, Fraction(1, 6)))

    @pytest.mark.parametrize("r1", (Fraction(1, 5), Fraction(2, 9), Fraction(3, 13), Fraction(1, 7)))
    @pytest.mark.parametrize("n", range(4, 22, 2))
    def test_closed_form_matches_three_cuts(self, n, r1):
        P, Q = truncated_simplex(n, r1), three_cut_truncated_simplex(n, r1)
        blob = json.dumps(polytope_to_json(P), sort_keys=True)
        assert blob == json.dumps(polytope_to_json(Q), sort_keys=True)
        assert [(e.ends, e.provenance) for e in edges_of(P)] == [(e.ends, e.provenance) for e in edges_of(Q)]
        assert P.facets == Q.facets
        assert [v.id for v in P.vertices] == [v.id for v in Q.vertices] and P.vertices == Q.vertices
        assert P.integer_coords == Q.integer_coords

    def test_input_validation(self):
        with pytest.raises(ValueError):
            truncated_simplex(5)
        with pytest.raises(ValueError):
            truncated_simplex(2)
        with pytest.raises(ValueError):
            truncated_simplex(4, Fraction(1, 4))
        with pytest.raises(ValueError):
            truncated_simplex(4, Fraction(0))


class TestClosedFormGraph:
    """What the closed-form cells and h-vectors assume about the derived graph of ``truncated_simplex(n)``.

    No request derives this graph, so its ridge and connectivity checks run here.
    """

    @pytest.mark.parametrize("n", range(4, 42, 2))
    def test_root_partner_and_cut_neighbours(self, n):
        P = truncated_simplex(n)
        labels = decode_truncated_simplex(P, Fraction(1, 5))
        V = len(P.vertices)
        pairs = _derive_edges(P.incidence, P.facet_ids)  # raises on a ridge shared by three vertices
        assert len(pairs) == V * n // 2
        assert _is_connected(V, pairs)
        index = {v.id: j for j, v in enumerate(P.vertices)}
        root = [[] for _ in range(V)]
        cut = [[] for _ in range(V)]
        for e in edges_of(P):
            a, b = index[e.ends[0]], index[e.ends[1]]
            (root if e.provenance.kind == "original" else cut)[a].append(b)
            (root if e.provenance.kind == "original" else cut)[b].append(a)
        for v, (i, m, f), partners, neighbours in zip(P.vertices, labels, root, cut):
            assert v.id == f"A{i}|d{m}"
            assert [P.vertices[w].id for w in partners] == [f"A{m}|d{i}"]
            # The other n - 1 neighbours share the cut face and one of i, m.
            others = {labels[w] for w in neighbours}
            assert len(others) == n - 1
            assert all(g == f and (j == i) != (l == m) for j, l, g in others)


def truncated_simplex_json(n=4, r1=Fraction(1, 5)):
    return json.loads(json.dumps(polytope_to_json(truncated_simplex(n, r1))))


@pytest.mark.parametrize("k", range(1, 7))
def test_loaded_certificate_has_the_built_coordinates(k):
    built = build_W(k).pair.polytope
    loaded = wmanifold_from_json(json.loads(json.dumps(wmanifold_to_json(build_W(k))))).pair.polytope
    assert dict(zip([v.facet_ids for v in loaded.vertices], loaded.coords())) == dict(
        zip([v.facet_ids for v in built.vertices], built.coords())
    )
    # Each distinct coordinate string is parsed once, and every zero is the built polytope's zero.
    assert len({id(x) for row in loaded.coords() for x in row}) == 3
    zero = next(x for x in built.coords()[0] if not x)
    assert {id(x) for row in loaded.coords() for x in row if not x} == {id(zero)}


@pytest.mark.parametrize("r1", (Fraction(1, 5), Fraction(2, 9), Fraction(3, 13), Fraction(1, 7)))
@pytest.mark.parametrize("k", range(1, 9))
def test_coordinates_are_made_from_the_labels(k, r1):
    # The built polytope and its boundary faces read the closed form, written here entry by entry.
    n = 2 * (k + 1)
    expected = closed_form_coords(n, r1)
    W = build_W(k, r1)
    assert coords_by_id(W.pair.polytope) == expected
    for component in mask_components(W):
        assert coords_by_id(component.polytope) == {v.id: expected[v.id] for v in component.polytope.vertices}


class TestDecodeTruncatedSimplex:
    """The realisation check every ``WManifold`` runs, built or loaded."""

    @pytest.mark.parametrize("n", (4, 6, 12))
    def test_built_and_loaded(self, n):
        P = truncated_simplex(n, Fraction(2, 9))
        labels = decode_truncated_simplex(P, Fraction(2, 9))
        assert [f"A{i}|d{m}" for i, m, _ in labels] == [v.id for v in P.vertices]
        assert all(("P1", "P2", "P3")[f] in v.facet_ids for v, (_, _, f) in zip(P.vertices, labels))
        loaded = polytope_from_json(polytope_to_json(P))
        order = sorted(P.vertices, key=lambda v: sorted(v.facet_ids))
        assert decode_truncated_simplex(loaded, Fraction(2, 9)) == tuple(
            labels[P.vertices.index(v)] for v in order
        )

    def test_other_depth(self):
        message = "vertex A0|d2 is not A0|d2 of the truncated 4-simplex at r1 = 1/7: coordinate 0 is 4/5, expected 6/7"
        with pytest.raises(RealisationError, match=f"^{re.escape(message)}$"):
            decode_truncated_simplex(truncated_simplex(4, Fraction(1, 5)), Fraction(1, 7))

    def test_product_of_simplices(self):
        with pytest.raises(RealisationError, match="^facet L.d0 is not a facet of the truncated 4-simplex$"):
            decode_truncated_simplex(product(simplex(2), simplex(2)), Fraction(1, 5))

    @pytest.mark.parametrize(
        "facet,provenance,message",
        [
            ("d3", {"kind": "original", "index": 7}, "facet d3 has provenance original 7, expected original 3"),
            (
                "P1",
                {"kind": "cut", "face": ["d2", "d3"]},
                "facet P1 has provenance cut {d2, d3}, expected cut {d2, d3, d4}",
            ),
        ],
    )
    def test_facet_of_other_provenance(self, facet, provenance, message):
        data = truncated_simplex_json()
        (entry,) = [f for f in data["facets"] if f["id"] == facet]
        entry["provenance"] = provenance
        with pytest.raises(RealisationError, match=f"^{re.escape(message)}$"):
            decode_truncated_simplex(polytope_from_json(data), Fraction(1, 5))

    def test_missing_facet(self):
        # Sixteen vertices on the facets of the truncated 4-simplex without d4.
        ids = ["P1", "P2", "P3", "d0", "d1", "d2", "d3"]
        data = truncated_simplex_json()
        data["facets"] = [f for f in data["facets"] if f["id"] != "d4"]
        data["vertices"] = [list(c) for c in itertools.combinations(ids, 4)][:16]
        with pytest.raises(RealisationError, match="^facet d4 of the truncated 4-simplex is missing$"):
            decode_truncated_simplex(polytope_from_json(data), Fraction(1, 5))

    def test_missing_vertex(self):
        data = truncated_simplex_json()
        del data["vertices"][5], data["coords"][5]
        with pytest.raises(RealisationError, match="^the polytope has 15 vertices, the truncated 4-simplex has 16$"):
            decode_truncated_simplex(polytope_from_json(data), Fraction(1, 5))

    def test_coordinates_of_another_length(self):
        data = truncated_simplex_json()
        data["coords"] = [row[:-1] for row in data["coords"]]
        with pytest.raises(RealisationError, match="^vertex coordinates must have 5 entries"):
            decode_truncated_simplex(polytope_from_json(data), Fraction(1, 5))

    def test_vertex_on_two_cut_facets(self):
        data = truncated_simplex_json()
        vertex = data["vertices"][0]
        assert vertex == ["P1", "d0", "d2", "d3"]
        data["vertices"][0] = ["P1", "P2", "d2", "d3"]
        with pytest.raises(RealisationError, match="^vertex v00 lies on 2 cut facets, not one$"):
            decode_truncated_simplex(polytope_from_json(data), Fraction(1, 5))

    def test_vertex_missing_two_facets_of_its_face(self):
        data = truncated_simplex_json()
        data["vertices"][0] = ["P1", "d2", "d3", "d4"]
        with pytest.raises(RealisationError, match="^vertex v00 lies on P1 and misses d0 and d1; no vertex"):
            decode_truncated_simplex(polytope_from_json(data), Fraction(1, 5))

    def test_swapped_coordinates(self):
        data = truncated_simplex_json()
        data["coords"][0], data["coords"][1] = data["coords"][1], data["coords"][0]
        message = "vertex v00 is not A1|d4 of the truncated 4-simplex at r1 = 1/5: coordinate 3 is 1/5, expected 0/1"
        with pytest.raises(RealisationError, match=f"^{re.escape(message)}$"):
            decode_truncated_simplex(polytope_from_json(data), Fraction(1, 5))


class TestGraphOnFirstRead:
    """A loaded polytope's graph is checked when a test derives it, not by the constructor.

    ``_derive_edges`` rejects a ridge on three vertices; ``edges_of`` adds the
    connectivity check.
    """

    def test_three_vertices_on_a_ridge(self):
        data = truncated_simplex_json()
        a, b = data["vertices"][0], data["vertices"][1]
        shared = sorted(set(a) & set(b))
        assert len(shared) == 3
        data["facets"].append({"id": "zz", "provenance": {"kind": "original", "index": 9}})
        data["vertices"].append(shared + ["zz"])
        data["coords"].append(data["coords"][0])
        P = polytope_from_json(data)
        with pytest.raises(ValueError, match="is shared by 3 vertices; a simple polytope allows at most 2"):
            edges_of(P)

    def test_disconnected(self):
        # Two disjoint triangles, as in TestConstructorChecks.
        ids = ["a0", "a1", "a2", "b0", "b1", "b2"]
        facets = [{"id": f, "provenance": {"kind": "original", "index": i}} for i, f in enumerate(ids)]
        vertices = [[f"{t}{i}", f"{t}{j}"] for t in "ab" for i, j in ((0, 1), (0, 2), (1, 2))]
        P = polytope_from_json({"dim": 2, "facets": facets, "vertices": vertices})
        with pytest.raises(ValueError, match="^vertex-edge graph is disconnected$"):
            edges_of(P)


class TestConstructorChecks:
    """The constructor rejects data that is not a simple polytope, built in closed form or not."""

    @staticmethod
    def parts(n=4):
        P = truncated_simplex(n)
        return P.dim, list(P.facets), list(P.vertices), {e.ends: e.provenance for e in edges_of(P)}

    def test_closed_form_passes(self):
        dim, facets, vertices, tags = self.parts()
        assert {e.ends: e.provenance for e in edges_of(checked_polytope(dim, facets, vertices))} == tags

    def test_non_simple_vertex_rejected(self):
        dim, facets, vertices, _ = self.parts()
        v = vertices[0]
        vertices[0] = SetVertex(v.id, v.facet_ids - {min(v.facet_ids)})
        with pytest.raises(ValueError, match=f"vertex {v.id} lies on {dim - 1} facets"):
            checked_polytope(dim, facets, vertices)

    def test_identical_facet_sets_rejected(self):
        dim, facets, vertices, _ = self.parts()
        v = vertices[0]
        vertices.append(SetVertex("copy", v.facet_ids))
        with pytest.raises(ValueError, match="identical facet sets"):
            checked_polytope(dim, facets, vertices)

    @pytest.mark.parametrize("index,message", [(0, "the vertices"), (3, "vertex A1|d2")])
    def test_vertex_over_other_facet_ids_rejected(self, index, message):
        P = truncated_simplex(4)
        vertices = list(P.vertices)
        v = vertices[index]
        vertices[index] = Vertex(v.id, v.mask, P.facet_ids[::-1])
        with pytest.raises(ValueError, match=f"^{re.escape(message)} (is|are) not over the polytope's facet ids$"):
            SimplePolytope(P.dim, P.facets, vertices)

    def test_disconnected_graph_rejected(self):
        # Two disjoint triangles: simple and of distinct facet sets, but not connected.  The
        # constructor accepts them; the graph check, which no request runs, is the oracles'.
        ids = ["a0", "a1", "a2", "b0", "b1", "b2"]
        facets = [FacetLabel(f, original_facet(i)) for i, f in enumerate(ids)]
        vertices = [
            SetVertex(f"{t}{i}{j}", frozenset({f"{t}{i}", f"{t}{j}"}))
            for t in "ab"
            for i, j in ((0, 1), (0, 2), (1, 2))
        ]
        with pytest.raises(ValueError, match="disconnected"):
            checked_polytope(2, facets, vertices)


def _unknown_at_5(vertices):
    vertices[5][0] = "zz"


def _unknown_at_5_after_a_repeat_at_2(vertices):
    vertices[5][0] = "zz"
    vertices[2] = list(vertices[1])


def _unknown_twice_at_5(vertices):
    vertices[5][0] = vertices[5][1] = "zz"


def _non_string_id_at_5(vertices):
    vertices[5][-1] = 7


def _repeat_at_5_before_unknown_at_9(vertices):
    vertices[5] = list(vertices[4])
    vertices[9][0] = "zz"


@pytest.mark.parametrize(
    "edit",
    [_unknown_at_5, _unknown_at_5_after_a_repeat_at_2, _unknown_twice_at_5, _non_string_id_at_5,
     _repeat_at_5_before_unknown_at_9],
)
def test_loaded_vertex_lists_fail_as_frozensets_did(edit):
    """A loaded vertex list naming ids that are no facet's fails with the frozenset constructor's
    message, and the first vertex at fault is the one named."""
    P = truncated_simplex(4)
    data = json.loads(json.dumps(polytope_to_json(P)))
    edit(data["vertices"])
    sets = [SetVertex(f"v{i:02d}", frozenset(map(str, fids))) for i, fids in enumerate(data["vertices"])]
    with pytest.raises(ValueError) as oracle:
        frozenset_edges(P.dim, P.facets, sets, {})
    with pytest.raises(ValueError) as loaded:
        polytope_from_json(data)
    assert str(loaded.value) == str(oracle.value)
    assert "facet" in str(loaded.value)


class TestMaskIncidenceMatchesFrozensetOracle:
    """Edges, tags and errors of the bitmask constructor equal those of the frozenset derivation."""

    @staticmethod
    def tags(P):
        return {e.ends: e.provenance for e in edges_of(P)}

    @staticmethod
    def assert_derivations_agree(P):
        ids = [v.id for v in P.vertices]
        pairs = [(ids[i], ids[j]) for i, j in _derive_edges(P.incidence, P.facet_ids)]
        assert pairs == frozenset_derive_edges(P.vertices) == [e.ends for e in edges_of(P)]

    @pytest.mark.parametrize("n", range(4, 22, 2))
    def test_truncated_simplex(self, n):
        P = truncated_simplex(n)
        self.assert_derivations_agree(P)
        # Tags from the independent face-truncation engine.
        tags = self.tags(three_cut_truncated_simplex(n))
        assert edges_of(P) == frozenset_edges(P.dim, P.facets, P.vertices, tags)

    def assert_face_matches_oracle(self, P, facet):
        face = face_as_polytope(P, [facet])
        self.assert_derivations_agree(face)
        coord = coords_by_id(P)
        vertices = [SetVertex(v.id, v.facet_ids - {facet}, coord[v.id]) for v in P.vertices if facet in v.facet_ids]
        used = frozenset().union(*(v.facet_ids for v in vertices))
        facets = [f for f in P.facets if f.id in used]
        inside = {v.id for v in vertices}
        tags = {ends: tag for ends, tag in self.tags(P).items() if set(ends) <= inside}
        # Vertices over different universes are different records: compare what they say.
        assert [(v.id, v.facet_ids, x) for v, x in zip(face.vertices, face.coords())] == [
            (v.id, v.facet_ids, v.coord) for v in vertices
        ]
        assert face.facets == tuple(facets)
        # A face keeps no tags of its parent's: compare the edges by their ends.
        expected = frozenset_edges(P.dim - 1, facets, vertices, tags)
        assert [e.ends for e in edges_of(face)] == [e.ends for e in expected]

    @pytest.mark.parametrize("n", range(4, 22, 2))
    @pytest.mark.parametrize("facet", ("P1", "P2", "P3"))
    def test_faces(self, n, facet):
        self.assert_face_matches_oracle(truncated_simplex(n), facet)

    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    @pytest.mark.parametrize("facet", ("P1", "P2", "P3"))
    def test_faces_of_loaded_certificates(self, k, facet):
        blob = json.loads(json.dumps(wmanifold_to_json(build_W(k))))
        P = wmanifold_from_json(blob).pair.polytope
        self.assert_face_matches_oracle(P, facet)

    @pytest.mark.parametrize("n", range(4, 22, 2))
    def test_json_round_trip(self, n):
        P = truncated_simplex(n)
        loaded = polytope_from_json(polytope_to_json(P))
        self.assert_derivations_agree(loaded)
        # polytope_to_json lists the vertices by sorted facet ids; they load as v0, v1, ...
        order = sorted(P.vertices, key=lambda v: sorted(v.facet_ids))
        name = {v.id: w.id for v, w in zip(order, loaded.vertices)}
        tags = {tuple(sorted((name[a], name[b]))): tag for (a, b), tag in self.tags(P).items()}
        assert edges_of(loaded) == frozenset_edges(n, loaded.facets, loaded.vertices, tags)

    @pytest.mark.parametrize("n", (4, 6, 8))
    @pytest.mark.parametrize("defect", ("three-on-a-ridge", "unknown-facet", "repeated-facet-set"))
    def test_errors(self, n, defect):
        P = truncated_simplex(n)
        facets, vertices = list(P.facets), list(P.vertices)
        v = vertices[n]
        if defect == "three-on-a-ridge":
            # A third vertex on the dim-1 facets of an edge; its other subsets
            # all hold the new facet, so this is the only one shared by three.
            a, b = (facet_sets(P)[end] for end in edges_of(P)[n].ends)
            facets.append(FacetLabel("zz", original_facet(n + 4)))
            vertices.append(SetVertex("new", a & b | {"zz"}))
        elif defect == "unknown-facet":
            vertices[n] = SetVertex(v.id, v.facet_ids - {min(v.facet_ids)} | {"zz"})
        else:
            vertices.append(SetVertex("copy", v.facet_ids))
        with pytest.raises(ValueError) as oracle:
            frozenset_edges(n, facets, vertices, self.tags(P))
        with pytest.raises(ValueError) as built:
            checked_polytope(n, facets, vertices)
        assert str(built.value) == str(oracle.value)
        expected = {
            "three-on-a-ridge": "is shared by 3 vertices; a simple polytope allows at most 2",
            "unknown-facet": f"vertex {v.id} references unknown facets",
            "repeated-facet-set": f"vertices {v.id} and copy have identical facet sets",
        }[defect]
        assert str(built.value).endswith(expected)


class TestProduct:
    def test_square(self):
        Q = product(simplex(1), simplex(1))
        assert len(Q.facets) == 4 and len(Q.vertices) == 4 and len(edges_of(Q)) == 4

    def test_prism(self):
        Q = product(simplex(1), simplex(2))
        assert len(Q.facets) == 5 and len(Q.vertices) == 6

    def test_counts_multiply(self):
        Q = product(simplex(2), simplex(3))
        assert len(Q.facets) == 7 and len(Q.vertices) == 12

    def test_coordinates_concatenate(self):
        Q = product(simplex(1), simplex(2))
        check_geometry(Q)
        assert len(Q.coords()[0]) == 5

    @pytest.mark.parametrize(
        "P,Q",
        [
            *((simplex(a), simplex(b)) for a, b in ((1, 1), (1, 2), (2, 3), (3, 3), (1, 5))),
            (product(simplex(1), simplex(1)), simplex(2)),
        ],
    )
    def test_every_edge_is_its_own_root_edge(self, P, Q):
        """Each edge is an edge of one factor times a vertex of the other, tagged by its own ends."""
        R = product(P, Q)
        expected = set()
        for e in edges_of(P):
            expected |= {tuple(sorted(f"{end}*{v.id}" for end in e.ends)) for v in Q.vertices}
        for e in edges_of(Q):
            expected |= {tuple(sorted(f"{u.id}*{end}" for end in e.ends)) for u in P.vertices}
        assert {e.ends for e in edges_of(R)} == expected
        for e in edges_of(R):
            assert e.provenance == original_edge(*e.ends)


class TestIsomorphism:
    def test_truncation_facets_recognized(self):
        P = truncated_simplex(4, Fraction(1, 5))
        p1 = face_as_polytope(P, ["P1"])
        assert combinatorially_isomorphic(p1, product(simplex(1), simplex(2))) is not None
        p3 = face_as_polytope(P, ["P3"])
        assert combinatorially_isomorphic(p3, simplex(3)) is not None

    def test_non_isomorphic(self):
        triangle = simplex(2)
        square = product(simplex(1), simplex(1))
        assert combinatorially_isomorphic(triangle, square) is None

    def test_bijection_maps_vertices(self):
        P = product(simplex(1), simplex(2))
        Q = product(simplex(2), simplex(1))
        phi = combinatorially_isomorphic(P, Q)
        assert phi is not None
        q_sets = {v.facet_ids for v in Q.vertices}
        for v in P.vertices:
            assert frozenset(phi[f] for f in v.facet_ids) in q_sets


class TestVertexIndices:
    def test_simplex_staircase(self):
        n = 4
        P = simplex(n)
        zeta = LinearFunctional(tuple(range(n + 1)))
        ind = vertex_indices(P, zeta)
        assert [ind[f"A{j}"] for j in range(n + 1)] == list(range(n + 1))

    @pytest.mark.parametrize("n,seed", [(4, 0), (6, 1)])
    def test_index_sum_is_edge_count(self, n, seed):
        P = truncated_simplex(n, Fraction(1, 5))
        ind = vertex_indices(P, generate_functional(P, seed))
        assert sum(ind.values()) == len(edges_of(P))

    def test_unique_extremes(self):
        P = truncated_simplex(4, Fraction(1, 5))
        ind = vertex_indices(P, generate_functional(P, 0))
        values = sorted(ind.values())
        assert values.count(0) == 1 and values.count(4) == 1

    def test_non_injective_rejected(self):
        P = simplex(2)
        with pytest.raises(ValueError, match="not injective"):
            vertex_indices(P, LinearFunctional((1, 1, 1)))

    @pytest.mark.parametrize("coefficients", [(1, 2), (1, 2, 3, 4)])
    def test_functional_of_another_ambient_dimension_rejected(self, coefficients):
        zeta = LinearFunctional(coefficients)
        with pytest.raises(ValueError, match="different ambient dimensions"):
            vertex_indices(simplex(2), zeta)


class TestHVector:
    @pytest.mark.parametrize("n", (2, 3, 5))
    def test_simplex_is_all_ones(self, n):
        P = simplex(n)
        assert h_vector(P, generate_functional(P, 0)) == (1,) * (n + 1)

    def test_prism_against_polynomial_oracle(self):
        expected = product_h_vector((1, 1), (1, 1, 1))
        assert expected == (1, 2, 2, 1)
        P = product(simplex(1), simplex(2))
        assert h_vector(P, generate_functional(P, 0)) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_seed_independent_and_palindromic(self, seed):
        P = truncated_simplex(4, Fraction(1, 5))
        h = h_vector(P, generate_functional(P, seed))
        assert h == h_vector(P, generate_functional(P, 0))
        assert h == tuple(reversed(h))
        assert sum(h) == len(P.vertices)


class TestGenerateFunctional:
    def test_deterministic(self):
        P = truncated_simplex(4, Fraction(1, 5))
        assert generate_functional(P, 7) == generate_functional(P, 7)

    def test_injective_on_vertices(self):
        P = truncated_simplex(6, Fraction(1, 8))
        zeta = generate_functional(P, 3)
        values = {zeta(x) for x in P.coords()}
        assert len(values) == len(P.vertices)

    def test_degenerate_coordinates_fail(self):
        left = SetVertex("x", frozenset({"f0"}), (Fraction(0),))
        right = SetVertex("y", frozenset({"f1"}), (Fraction(0),))
        from cpbound.polytope import FacetLabel, original_facet

        P = checked_polytope(
            1, [FacetLabel("f0", original_facet(0)), FacetLabel("f1", original_facet(1))], [left, right]
        )
        with pytest.raises(ValueError, match="degenerate"):
            generate_functional(P, 0)

    def test_draws_pinned_below_a_thousand_vertices(self):
        # The coefficient bound grows with the vertex count only past 1000
        # vertices, so these 240-vertex draws are the ones made before it did.
        P = truncated_simplex(20)
        head = (770880, -192083, 589545, 866976, -117998, -915099)
        tail = (-559693, -803163, 23109, -940552, 873421, 752726)
        assert generate_functional(P, 0).coefficients[:6] == head
        assert generate_functional(P, 1).coefficients[-6:] == tail
        assert generate_functional(P, 7).coefficients == (
            -320874, 987817, -683647, -171996, 365108, -898737, -848091, 722337, 123826, -802595, -233095,
            222195, -878368, 907787, 64169, -549746, -921366, -819756, -90580, -123030, -853503,
        )  # fmt: skip

    def test_separates_the_k64_truncated_simplex(self):
        # 8710 vertices: coefficients within +-10**6 collide for seeds 0, 3 and 4.
        P = truncated_simplex(130)
        for seed in range(4):
            zeta, values = separating_functional(P, seed)
            assert len(set(values.values())) == len(P.vertices)
            assert max(map(abs, zeta.coefficients)) > 10**6


class TestFunctionalDraws:
    @settings(max_examples=300, deadline=None)
    @given(
        ambient=st.integers(1, 64),
        vertex_count=st.sampled_from((1, 286, 1000, 1001, 10**5)),
        seed=st.integers(-(2**70), 2**70),
    )
    @example(ambient=64, vertex_count=10**5, seed=0)
    @example(ambient=1, vertex_count=1001, seed=2**64)
    def test_draws_are_the_randrange_draws(self, ambient, vertex_count, seed):
        # B is 10**6 up to 1000 vertices and the vertex count squared past it;
        # at 10**5 vertices 2B + 1 needs 35 bits, more than one 32-bit word.
        drawn = functional_draws(ambient, vertex_count, seed)
        expected = randrange_draws(ambient, vertex_count, seed)
        assert [next(drawn) for _ in range(3)] == [next(expected) for _ in range(3)]
        for _ in range(FUNCTIONAL_RETRY_BUDGET - 3):
            next(drawn)
        with pytest.raises(ValueError, match=f"^no injective functional after {FUNCTIONAL_RETRY_BUDGET} attempts; "):
            next(drawn)

    @pytest.mark.parametrize("vertex_count", range(1, 7))
    def test_draws_are_the_randrange_draws_at_small_widths(self, monkeypatch, vertex_count):
        # With no floor on B, B = V**2 and 2B + 1 = 3, 9, ..., 73: up to a quarter of the getrandbits are redrawn.
        for module in (polytope, oracles):
            monkeypatch.setattr(module, "FUNCTIONAL_COEFF_BOUND", 0)
        values = set()
        for seed in range(20):
            drawn = list(itertools.islice(functional_draws(3, vertex_count, seed), FUNCTIONAL_RETRY_BUDGET))
            assert drawn == list(itertools.islice(randrange_draws(3, vertex_count, seed), FUNCTIONAL_RETRY_BUDGET))
            values.update(x for c in drawn for x in c)
        assert values == set(range(-(vertex_count**2), vertex_count**2 + 1))


class TestJson:
    def test_round_trip_is_stable(self):
        P = truncated_simplex(4, Fraction(1, 5))
        blob = polytope_to_json(P)
        again = polytope_to_json(polytope_from_json(blob))
        assert blob == again

    def test_edge_tags_reconstructed(self):
        P = truncated_simplex(4, Fraction(1, 5))
        loaded = polytope_from_json(polytope_to_json(P))
        originals = [e for e in edges_of(loaded) if e.provenance.kind == "original"]
        assert len(originals) == 8
        ancestors = {e.provenance.ancestors for e in originals}
        built = {e.provenance.ancestors for e in edges_of(P) if e.provenance.kind == "original"}
        assert ancestors == built

    def test_incidence_preserved(self):
        P = truncated_simplex(6, Fraction(1, 6))
        loaded = polytope_from_json(polytope_to_json(P))
        assert combinatorially_isomorphic(P, loaded) is not None
        assert set(loaded.coords()) == set(P.coords())
