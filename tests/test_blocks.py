"""A built W in O(n) against the paths it replaced.

``CharVector`` stores its nonzero entries (oracles ``dense_canon`` and
``dense_eta_standard``), ``validate`` reads its class pairs off the blocks
F x R and walks the labels only for a failing class (oracle
``label_validate``, the one pass over the labels), P3's normal form is read
off B M = I (oracle ``dense_normalize_simplex_pair``, D B applied densely to
every vector), ``fraction_free_reduce`` finds a column's rows through its
column index (oracle ``scanning_fraction_free_reduce``, which tests every
row) and ``cell_structure`` walks the draw's sorted order once (oracles
``closed_form_cell_structure`` and ``graph_walk_cell_structure``).  Built and
loaded W, with the loaded vertex lists shuffled, at k <= 12 and several r1,
and the mutated corpus, whose failures must be the oracle's in the same order.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpbound.charfn import CharVector, eta_facet_assignment, eta_standard, normalize_simplex_pair, validate
from cpbound.cobordism import (
    WManifold,
    boundary_components,
    build_W,
    cell_structure,
    glue_report,
    glue_report_to_json,
    wmanifold_from_json,
    wmanifold_to_json,
)
from cpbound.polytope import truncated_simplex
from cpbound.zlinalg import fraction_free_reduce

from oracles import (
    attach,
    closed_form_cell_structure,
    dense_canon,
    dense_eta_standard,
    dense_normalize_simplex_pair,
    generator_counts,
    graph_walk_cell_structure,
    label_validate,
    per_vertex_validate,
    scanning_fraction_free_reduce,
)

R1S = (Fraction(1, 5), Fraction(1, 7), Fraction(2, 9))


def loaded(W, shuffle=None):
    """W through its JSON; with a seed, its vertex list (and coordinates with it) shuffled first."""
    data = json.loads(json.dumps(wmanifold_to_json(W)))
    if shuffle is not None:
        polytope = data["pair"]["polytope"]
        order = list(range(len(polytope["vertices"])))
        random.Random(shuffle).shuffle(order)
        polytope["vertices"] = [polytope["vertices"][j] for j in order]
        polytope["coords"] = [polytope["coords"][j] for j in order]
    return wmanifold_from_json(data)


def assert_blocks_validate_as_the_label_pass(W):
    """W's report, from its blocks, is the label pass's, failures and their order included."""
    expected = label_validate(W.pair, W.labels)
    assert W.report == validate(W.pair, lambda: W.labels) == expected
    return expected


class TestSparseVectors:
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=12))
    @example([0, 0, -2])
    @example([0])
    def test_canon_keeps_the_dense_entries(self, entries):
        if not any(entries):
            with pytest.raises(ValueError, match="^characteristic vector must be nonzero$"):
                CharVector.canon(entries)
            return
        v = CharVector.canon(entries)
        assert v.entries == dense_canon(entries)
        assert len(v) == len(entries)
        assert v.nonzero == tuple((j, x) for j, x in enumerate(v.entries) if x)

    @pytest.mark.parametrize("n", range(4, 61, 2))
    def test_eta_is_the_dense_family(self, n):
        eta = eta_standard(n)
        assert {j: v.entries for j, v in eta.items()} == dense_eta_standard(n)
        # n - 1 unit vectors and two with n/2 ones
        assert sorted(len(v.nonzero) for v in eta.values()) == [1] * (n - 1) + [n // 2] * 2


class TestValidateOnBlocks:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 12), r1=st.sampled_from(R1S), source=st.sampled_from(("built", "loaded", "shuffled")))
    def test_built_and_loaded_w(self, k, r1, source):
        W = build_W(k, r1)
        W = {"built": W, "loaded": loaded(W), "shuffled": loaded(W, shuffle=k)}[source]
        assert assert_blocks_validate_as_the_label_pass(W).ok
        assert W.report.checked_vertices == W.n * (W.n + 4) // 2 == len(W.labels)

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_every_root_vector_doubled(self, k):
        """Each root facet's vector set to twice a unit vector in turn: a failing class in every block."""
        n = 2 * (k + 1)
        P = truncated_simplex(n)
        eta = {f: v.entries for f, v in eta_facet_assignment(n).items()}
        for m in range(n + 1):
            doubled = tuple(2 * int(p == m % (n - 1)) for p in range(n - 1))
            W = WManifold(attach(P, eta | {f"d{m}": doubled}, n - 1), n, Fraction(1, 5))
            for w in (W, loaded(W, shuffle=m)):
                report = assert_blocks_validate_as_the_label_pass(w)
                assert not report.ok and report == per_vertex_validate(w.pair)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 4), r1=st.sampled_from(R1S), data=st.data())
    def test_mutated_corpus(self, k, r1, data):
        """One to three vectors replaced by random 0/+-1 vectors or multiples of unit vectors, built and shuffled."""
        n = 2 * (k + 1)
        table = {f: list(v.entries) for f, v in eta_facet_assignment(n).items()}
        for facet in data.draw(st.lists(st.sampled_from(sorted(table)), min_size=1, max_size=3, unique=True)):
            vector = data.draw(st.lists(st.integers(-1, 1), min_size=n - 1, max_size=n - 1))
            if data.draw(st.booleans()):
                vector = [data.draw(st.sampled_from((2, 3))) * int(x != 0) for x in vector]
            if not any(vector):
                vector[0] = 1
            table[facet] = vector
        W = WManifold(attach(truncated_simplex(n, r1), table, n - 1), n, r1)
        for w in (W, loaded(W, shuffle=data.draw(st.integers(0, 99)))):
            assert assert_blocks_validate_as_the_label_pass(w) == per_vertex_validate(w.pair)


class TestNormalFormFromTheInverse:
    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 12), r1=st.sampled_from(R1S), load=st.booleans())
    def test_p3_is_the_dense_normal_form(self, k, r1, load):
        W = build_W(k, r1)
        P3 = boundary_components(loaded(W, shuffle=k) if load else W)[2]
        form = normalize_simplex_pair(P3)
        assert form == dense_normalize_simplex_pair(P3)
        assert form.vector_of(form.residual_facet) == (1,) * (W.n - 1)
        assert all(len(image) == 1 for f, image in form.normal_form if f != form.residual_facet)


@st.composite
def sparse_matrices(draw, max_size=9):
    """Sparse integer rows: each entry nonzero with a drawn density, in -b..b for b in {1, 3, 40}, some rows
    repeated or combined, so pivots other than 1, rows filled in by an update and rank deficiency all occur."""
    r, c = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    density = draw(st.sampled_from((0.15, 0.4, 0.8)))
    bound = draw(st.sampled_from((1, 3, 40)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [[rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(c)] for _ in range(r)]
    if r > 2 and draw(st.booleans()):
        t, a, b = rng.sample(range(r), 3)
        rows[t] = [x - 2 * y for x, y in zip(rows[a], rows[b])]
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


class TestColumnIndex:
    @settings(max_examples=400, deadline=None)
    @given(sparse_matrices())
    @example([{0: 2, 1: 1}, {0: 1}, {1: 3, 2: 1}])
    @example([{}, {1: 1}, {0: 1, 1: 1}])
    def test_same_pivots_d_sign_and_rows_as_the_row_scan(self, a):
        expected = [dict(row) for row in a]
        assert fraction_free_reduce(a) == scanning_fraction_free_reduce(expected)
        assert a == expected


class TestOneWalkOfTheDraw:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_counts_are_the_closed_form_and_the_graph_walk(self, k):
        W = build_W(k)
        for seed in range(20):
            expected = generator_counts(closed_form_cell_structure(W, seed))
            assert cell_structure(W, seed).index_counts() == expected
            assert generator_counts(graph_walk_cell_structure(W, seed)) == expected


@pytest.mark.parametrize("k", (1, 2, 3, 6, 12))
@pytest.mark.parametrize("seed", (0, 7))
def test_glue_report_is_unchanged_on_a_loaded_and_shuffled_w(k, seed):
    W = build_W(k)
    expected = glue_report_to_json(glue_report(W, seed, 1))
    assert glue_report_to_json(glue_report(loaded(W, shuffle=seed), seed, 1)) == expected
