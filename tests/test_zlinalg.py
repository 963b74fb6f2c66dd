import itertools
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpbound import zlinalg
from cpbound.charfn import eta_standard, normalize_simplex_pair
from cpbound.cobordism import boundary_components, build_W
from cpbound.zlinalg import (
    Entries,
    IntMatrix,
    Permutation,
    apply_matrix,
    column_product,
    determinant,
    fraction_free_reduce,
    inverse_unimodular,
    invariant_factors,
    is_direct_summand,
    permutation_sign,
    smith_normal_form,
)

from oracles import (
    bareiss_det,
    cofactor_det,
    dense_apply_matrix,
    dense_fraction_free_reduce,
    dense_inverse_unimodular,
    dense_normalize_simplex_pair,
    fraction_rank,
    from_rows,
    identity,
    is_unimodular_basis,
    matmul,
    matrix_rows,
    minor_gcd_invariant_factors,
    nonzero_pairs,
    random_matrix_rows,
    sparse_rows,
)


@st.composite
def square_matrices(draw, max_size=5, lo=-3, hi=3):
    n = draw(st.integers(1, max_size))
    entries = draw(st.lists(st.integers(lo, hi), min_size=n * n, max_size=n * n))
    return IntMatrix(n, n, tuple(entries))


@st.composite
def permutations(draw, max_size=8):
    n = draw(st.integers(1, max_size))
    images = draw(st.permutations(range(n)))
    return Permutation(tuple(images))


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            IntMatrix(0, 1, ())

    def test_from_rows_ragged(self):
        with pytest.raises(ValueError):
            from_rows([[1, 2], [3]])

    def test_accessors(self):
        m = from_rows([[1, 2], [3, 4]])
        assert m.row(1)[0] == 3
        assert m.row(0) == (1, 2)

    def test_stored_by_nonzero_entries(self):
        m = IntMatrix(2, 3, (0, 5, 0, -1, 0, 2))
        assert m.entries == Entries(3, (((1, 5),), ((0, -1), (2, 2))))
        assert tuple(m.entries) == (0, 5, 0, -1, 0, 2)
        assert m.row(1) == (-1, 0, 2)

    @given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=1, max_size=4))
    def test_dense_and_nonzero_constructions_agree(self, rows):
        dense = from_rows(rows)
        sparse = IntMatrix.from_nonzero(3, [{j: x for j, x in reversed(list(enumerate(row))) if x} for row in rows])
        assert dense == sparse and hash(dense) == hash(sparse)
        assert pickle.loads(pickle.dumps(sparse)) == dense
        assert list(sparse.entries) == [x for row in rows for x in row]

    def test_nonzero_construction_checks(self):
        with pytest.raises(ValueError, match="^a zero given as a nonzero entry$"):
            IntMatrix.from_nonzero(2, [{0: 1, 1: 0}])
        with pytest.raises(ValueError, match=r"^a column outside 0\.\.1$"):
            IntMatrix.from_nonzero(2, [{2: 1}])
        with pytest.raises(ValueError, match="^matrix needs at least one row and one column$"):
            IntMatrix.from_nonzero(2, [])
        with pytest.raises(ValueError, match="^2x3 matrix given the entries of a 1x3 one$"):
            IntMatrix(2, 3, Entries(3, ((),)))


class TestDeterminant:
    def test_identity(self):
        assert determinant(identity(3)) == 1

    def test_example_minus_one(self):
        rows = [[0, 0, 1], [1, 1, 0], [1, 0, 0]]
        assert cofactor_det(rows) == -1
        assert determinant(from_rows(rows)) == -1

    def test_example_dependent_rows(self):
        rows = [[1, 0, 0], [1, 1, 0], [0, 1, 0]]
        assert fraction_rank(rows) == 2
        assert determinant(from_rows(rows)) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant(from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_against_cofactor_oracle(self):
        rng = random.Random(20240811)
        for _ in range(300):
            rows = random_matrix_rows(rng, max_size=5, square=True)
            assert determinant(from_rows(rows)) == cofactor_det(rows)

    def test_large_entries_stay_exact(self):
        # Forces intermediates far beyond 64 bits.
        big = 10**25
        m = from_rows([[big, 1, 0], [1, big, 1], [0, 1, big]])
        assert determinant(m) == big * (big * big - 1) - big

    def test_size_16_exact(self):
        # Row operations preserve the determinant, so the product of the
        # original diagonal is the exact expected value.
        rng = random.Random(16)
        n = 16
        diag = [rng.randint(2, 9) for _ in range(n)]
        rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        expected = 1
        for d in diag:
            expected *= d
        for _ in range(60):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-3, 3)
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        assert determinant(from_rows(rows)) == expected


@st.composite
def signed_permutation_matrices(draw, max_size=40):
    n = draw(st.integers(1, max_size))
    images = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return Permutation(tuple(images)), signs


class TestFractionFreeReduce:
    """The elimination behind ``determinant`` and ``inverse_unimodular``, past cofactor sizes."""

    @given(signed_permutation_matrices())
    @settings(max_examples=150, deadline=None)
    @example((Permutation(tuple(range(40))), [1] * 40))  # every pivot 1: zero rows are skipped
    @example((Permutation(tuple(range(39, -1, -1))), [-1, 1] * 20))  # pivots alternate: piv != prev
    def test_signed_permutations(self, case):
        p, signs = case
        n = len(signs)
        m = IntMatrix(n, n, tuple(signs[i] if j == p(i) else 0 for i in range(n) for j in range(n)))
        expected = permutation_sign(p)
        for s in signs:
            expected *= s
        assert determinant(m) == expected
        transpose = IntMatrix(n, n, tuple(m.row(j)[i] for i in range(n) for j in range(n)))
        assert inverse_unimodular(m) == (transpose, expected)

    def test_against_bareiss_oracle_at_sizes_7_to_10(self):
        rng = random.Random(710)
        for trial in range(120):
            n = rng.randint(7, 10)
            rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
            if trial % 4 == 0:  # a dependent row: determinant 0
                r, a, b = rng.sample(range(n), 3)
                c = rng.randint(-3, 3)
                rows[r] = [x + c * y for x, y in zip(rows[a], rows[b])]
            expected = bareiss_det(rows)
            assert determinant(from_rows(rows)) == expected
            assert (expected == 0) == (trial % 4 == 0)

    def test_rank_and_pivot_block(self):
        rng = random.Random(31)
        for _ in range(200):
            rows = random_matrix_rows(rng, max_size=6, lo=-4, hi=4)
            rows[rng.randrange(len(rows))] = [0] * len(rows[0])
            a = sparse_rows(rows)
            pivots, d, _ = fraction_free_reduce(a)
            assert len(pivots) == fraction_rank(rows)
            for t, j in enumerate(pivots):
                assert [row.get(j, 0) for row in a] == [d if s == t else 0 for s in range(len(a))]


@st.composite
def dense_rows(draw, max_size=8):
    """Random integer rows, some rank-deficient: a zero row, a zero column or a combination of two rows."""
    r = draw(st.integers(1, max_size))
    c = draw(st.integers(1, max_size))
    bound = draw(st.sampled_from((1, 3, 50)))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=c, max_size=c), min_size=r, max_size=r))
    shape = draw(st.sampled_from(("free", "zero-row", "zero-column", "combined-rows")))
    if shape == "zero-row":
        rows[draw(st.integers(0, r - 1))] = [0] * c
    elif shape == "zero-column":
        j = draw(st.integers(0, c - 1))
        rows = [row[:j] + [0] + row[j + 1 :] for row in rows]
    elif shape == "combined-rows" and r > 2:
        t, a, b = draw(st.permutations(range(r)))[:3]
        x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[t] = [x * p + y * q for p, q in zip(rows[a], rows[b])]
    return rows


@st.composite
def unimodular_rows(draw, max_size=40):
    """A random n x n matrix of determinant +-1, n <= 40: a product of elementary matrices.

    Each step adds a multiple of one row to another or negates a row; the
    rows are then permuted.
    """
    n = draw(st.integers(1, max_size))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
    for i, j, c in draw(st.lists(steps, max_size=3 * n)):
        rows[i] = [-x for x in rows[i]] if i == j else [x + c * y for x, y in zip(rows[i], rows[j])]
    return [rows[p] for p in draw(st.permutations(range(n)))]


def signed_permutation_rows(case):
    p, signs = case
    n = len(signs)
    return [[signs[i] if j == p(i) else 0 for j in range(n)] for i in range(n)]


class TestSparseEliminationAgainstDense:
    """``fraction_free_reduce`` on sparse rows against the dense elimination it replaced.

    Both apply the same pivot rule and the same exact updates, so besides the
    pivots, d and sign, every reduced entry must agree, the pivot block
    included.  ``inverse_unimodular``, which runs on sparse rows, and
    ``column_product`` (behind ``apply_matrix``), which runs on a matrix's
    nonzero columns and a vector's nonzero entries, must equal their dense
    forms.
    """

    @staticmethod
    def assert_same_reduction(rows):
        width = len(rows[0])
        sparse, dense = sparse_rows(rows), [list(row) for row in rows]
        result = fraction_free_reduce(sparse)
        assert result == dense_fraction_free_reduce(dense)
        assert [[row.get(j, 0) for j in range(width)] for row in sparse] == dense
        assert all(all(row.values()) for row in sparse)  # no zero is stored
        pivots, d, _ = result
        for t, j in enumerate(pivots):
            assert [row[j] for row in dense] == [d if s == t else 0 for s in range(len(dense))]
        return result

    @given(dense_rows())
    @settings(max_examples=300, deadline=None)
    @example([[0, 0], [0, 0]])
    @example([[0, 2, 4], [0, 1, 2], [3, 0, 1]])
    def test_random_dense_matrices(self, rows):
        pivots, _, _ = self.assert_same_reduction(rows)
        assert len(pivots) == fraction_rank(rows)

    @given(signed_permutation_matrices())
    @settings(max_examples=100, deadline=None)
    def test_signed_permutations(self, case):
        rows = signed_permutation_rows(case)
        pivots, d, _ = self.assert_same_reduction(rows)
        assert pivots == list(range(len(rows))) and abs(d) == 1
        m = from_rows(rows)
        assert inverse_unimodular(m) == dense_inverse_unimodular(m)

    @given(unimodular_rows(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unimodular_matrices(self, rows, data):
        pivots, d, _ = self.assert_same_reduction(rows)
        assert pivots == list(range(len(rows))) and abs(d) == 1
        m = from_rows(rows)
        inverse, det = inverse_unimodular(m)
        assert (inverse, det) == dense_inverse_unimodular(m)
        assert matmul(m, inverse) == identity(len(rows))
        v = data.draw(st.lists(st.integers(-5, 5), min_size=len(rows), max_size=len(rows)))
        assert apply_matrix(m, v) == dense_apply_matrix(m, v)
        assert apply_matrix(inverse, apply_matrix(m, v)) == tuple(v)
        self.assert_products_match(m, data)
        self.assert_products_match(inverse, data)

    @staticmethod
    def assert_products_match(m, data):
        """One ``column_product`` of m, applied to several vectors' nonzero entries, each with zero entries or
        none: it gives the nonzero entries of the dense product, by place."""
        product = column_product(m)

        def assert_match(v):
            (pairs,) = nonzero_pairs([v])
            assert product(pairs) == nonzero_pairs([dense_apply_matrix(m, v)])[0]

        for bound in (1, 4, 50):
            assert_match(data.draw(st.lists(st.integers(-bound, bound), min_size=m.cols, max_size=m.cols)))
        unit = [0] * m.cols
        unit[data.draw(st.integers(0, m.cols - 1))] = -3
        assert_match(unit)
        assert product(()) == ()

    @given(dense_rows(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_column_product_on_dense_matrices(self, rows, data):
        # Any shape, with zero rows and zero columns among the drawn matrices.
        self.assert_products_match(from_rows(rows), data)

    @given(signed_permutation_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_column_product_on_signed_permutations(self, case, data):
        self.assert_products_match(from_rows(signed_permutation_rows(case)), data)

    @given(dense_rows(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_products_on_dense_matrices(self, rows, data):
        n = len(rows)
        m = from_rows([row[:n] + [0] * (n - len(row)) for row in rows])  # square
        v = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        assert apply_matrix(m, v) == dense_apply_matrix(m, v)
        try:
            expected = dense_inverse_unimodular(m)
        except ValueError:
            with pytest.raises(ValueError, match="not unimodular"):
                inverse_unimodular(m)
        else:
            assert inverse_unimodular(m) == expected


@st.composite
def unit_and_dense_columns(draw, max_size=40):
    """A d x d matrix of determinant +-1 shaped like P3's basis, d <= 40: shuffled unit columns and 1 to 3 dense ones.

    The dense columns, at places c_1..c_s of the identity, have entries in
    -2..2 on the other rows; on rows c_1..c_s they form a lower triangular
    block with +-1 on its diagonal, so the determinant is the product of
    those signs.  Rows and columns are then shuffled.
    """
    d = draw(st.integers(1, max_size))
    dense = draw(st.permutations(range(d)))[: draw(st.integers(1, min(3, d)))]
    columns = [[int(i == j) for i in range(d)] for j in range(d)]
    for t, c in enumerate(dense):
        column = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        for u, r in enumerate(dense):
            if u == t:
                column[r] = draw(st.sampled_from((1, -1)))
            elif u < t:
                column[r] = 0
        columns[c] = column
    row_order, column_order = draw(st.permutations(range(d))), draw(st.permutations(range(d)))
    return [[columns[j][i] for j in column_order] for i in row_order]


class TestSparsestColumnsFirst:
    """``inverse_unimodular`` peels m's unit columns and pivots on the rest sparsest first; the inverse and the
    determinant are unique, so they equal the dense elimination's in the natural column order, the determinant's
    sign included."""

    @given(unit_and_dense_columns())
    @settings(max_examples=150, deadline=None)
    @example([[1, 1], [0, 1]])
    @example([[1, 2, 1], [1, 0, 0], [0, 1, 0]])
    def test_unit_and_dense_columns(self, rows):
        m = from_rows(rows)
        inverse, det = inverse_unimodular(m)
        assert (inverse, det) == dense_inverse_unimodular(m)
        assert det == bareiss_det(rows)
        assert matmul(m, inverse) == identity(len(rows))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_p3_normal_form_is_the_natural_order_dense_one(self, k):
        P3 = boundary_components(build_W(k))[2]
        form, expected = normalize_simplex_pair(P3), dense_normalize_simplex_pair(P3)
        assert form.residual_image == dict(expected.normal_form)[expected.residual_facet]
        assert form.det == expected.det
        assert form == expected.as_simplex_normal_form()
        # D M^-1 carries the basis facet in column c to u_c e_c, so the library builds no other image.
        basis = [(f, image) for f, image in expected.normal_form if f != expected.residual_facet]
        assert [image for _, image in basis] == [((c, 1),) for c in range(len(basis))]


PEEL_KINDS = ("unimodular", "two-units-on-one-row", "core-det-2")


@st.composite
def peelable_matrices(draw, max_size=40):
    """A signed permutation matrix with 1 to 3 columns made dense, rows and columns shuffled: its kind and rows.

    Dense column t keeps its permutation row r_t; on the rows r_u of the
    dense columns it is lower triangular, 0 for u < t and +-1 for u = t,
    and elsewhere it takes entries in -2..2, so the determinant is +-1 and
    ``inverse_unimodular`` peels the unit columns and leaves the dense ones
    on rows r_u as its core.  Two kinds are not unimodular: one unit column
    moved onto another's row (singular), and one diagonal entry of the core
    made +-2 (determinant +-2).
    """
    kind = draw(st.sampled_from(PEEL_KINDS))
    d = draw(st.integers(4 if kind == "two-units-on-one-row" else 1, max_size))
    p = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    columns = [[signs[j] if i == p[j] else 0 for i in range(d)] for j in range(d)]
    places = draw(st.permutations(range(d)))
    s = draw(st.integers(1, min(3, d - 2) if kind == "two-units-on-one-row" else min(3, d)))
    dense, units = places[:s], places[s:]
    for t, c in enumerate(dense):
        column = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        for u, c2 in enumerate(dense):
            if u < t:
                column[p[c2]] = 0
            elif u == t:
                column[p[c2]] = draw(st.sampled_from((1, -1))) * (2 if kind == "core-det-2" and t == 0 else 1)
        columns[c] = column
    if kind == "two-units-on-one-row":
        j, other = draw(st.permutations(units))[:2]
        columns[j] = [draw(st.sampled_from((1, -1))) if i == p[other] else 0 for i in range(d)]
    row_order, column_order = draw(st.permutations(range(d))), draw(st.permutations(range(d)))
    return kind, [[columns[j][i] for j in column_order] for i in row_order]


class TestPeeledInverse:
    """``inverse_unimodular`` reads unit columns off and eliminates only the core; inverse and determinant are
    unique, so both equal the dense elimination's, and a singular or determinant +-2 matrix is rejected."""

    @given(peelable_matrices())
    @settings(max_examples=300, deadline=None)
    @example(("unimodular", [[0, -1], [1, 0]]))
    @example(("unimodular", [[1, 2, 0], [0, -1, 0], [0, 3, -1]]))
    @example(("two-units-on-one-row", [[1, -1, 0], [0, 0, 1], [0, 0, 1]]))
    @example(("core-det-2", [[2, 0, 0], [0, -1, 0], [1, 0, 1]]))
    def test_against_the_dense_inverse(self, case):
        kind, rows = case
        m = from_rows(rows)
        if kind == "unimodular":
            inverse, det = inverse_unimodular(m)
            assert (inverse, det) == dense_inverse_unimodular(m)
            assert det == bareiss_det(rows)
            assert matmul(m, inverse) == identity(len(rows))
        else:
            assert abs(bareiss_det(rows)) == (0 if kind == "two-units-on-one-row" else 2)
            with pytest.raises(ValueError, match="^matrix is not unimodular$"):
                dense_inverse_unimodular(m)
            with pytest.raises(ValueError, match="^matrix is not unimodular$"):
                inverse_unimodular(m)


@st.composite
def unimodular_systems(draw, max_size=12):
    """A kind, the rows of a d x d matrix, d <= 12, and 1 to 3 right-hand sides with entries in -3..3.

    As ``peelable_matrices``, but 0 to d of the signed permutation's columns
    are made dense, so that anything from no column to every column is
    peeled; a dense column whose entries off its diagonal row all come out 0
    is a unit column, and peeled too.
    """
    kind = draw(st.sampled_from(PEEL_KINDS))
    d = draw(st.integers(2 if kind == "two-units-on-one-row" else 1, max_size))
    p = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    columns = [[signs[j] if i == p[j] else 0 for i in range(d)] for j in range(d)]
    places = draw(st.permutations(range(d)))
    low, high = {"unimodular": (0, d), "two-units-on-one-row": (0, d - 2), "core-det-2": (1, d)}[kind]
    s = draw(st.integers(low, high))
    dense, units = places[:s], places[s:]
    for t, c in enumerate(dense):
        column = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        for u, c2 in enumerate(dense):
            if u < t:
                column[p[c2]] = 0
            elif u == t:
                column[p[c2]] = draw(st.sampled_from((1, -1))) * (2 if kind == "core-det-2" and t == 0 else 1)
        columns[c] = column
    if kind == "two-units-on-one-row":
        j, other = draw(st.permutations(units))[:2]
        columns[j] = [draw(st.sampled_from((1, -1))) if i == p[other] else 0 for i in range(d)]
    row_order, column_order = draw(st.permutations(range(d))), draw(st.permutations(range(d)))
    vectors = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=1, max_size=3))
    return kind, [[columns[j][i] for j in column_order] for i in row_order], vectors


class TestSolveUnimodular:
    """``solve_unimodular`` against the dense inverse times v: the same solutions and determinant, and the same
    error for a singular or determinant +-2 matrix, with 0 to all columns peeled; its core, the rows no unit
    column took, is all that is reduced."""

    @given(unimodular_systems())
    @settings(max_examples=300, deadline=None)
    @example(("unimodular", [[0, -1], [1, 0]], [[1, 2]]))  # every column peeled
    @example(("unimodular", [[1, 1], [1, 2]], [[3, -1], [0, 0]]))  # no column peeled, and v = 0
    @example(("unimodular", [[1, 2, 0], [0, -1, 0], [0, 3, -1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    @example(("two-units-on-one-row", [[1, -1, 0], [0, 0, 1], [0, 0, 1]], [[1, 1, 1]]))
    @example(("core-det-2", [[2, 0, 0], [0, -1, 0], [1, 0, 1]], [[2, 0, 1]]))
    def test_against_the_dense_inverse(self, case):
        kind, rows, vectors = case
        m, d = from_rows(rows), len(rows)
        sizes = []
        reduce = zlinalg.fraction_free_reduce

        def recording(a):
            sizes.append(len(a))
            return reduce(a)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(zlinalg, "fraction_free_reduce", recording)
            try:
                result = zlinalg.solve_unimodular(m, nonzero_pairs(vectors))
            except ValueError as error:
                result = error
        units = {column[0][0] for column in nonzero_pairs(zip(*rows)) if len(column) == 1 and abs(column[0][1]) == 1}
        assert sizes == [d - len(units)]  # one unit column peeled per row that one takes
        if kind == "unimodular":
            inverse, det = dense_inverse_unimodular(m)
            solved, solved_det = result
            assert all(0 not in row.values() for row in solved)  # X by its rows' nonzero entries
            expected = [dense_apply_matrix(inverse, v) for v in vectors]
            assert [[row.get(t, 0) for t in range(len(vectors))] for row in solved] == [list(x) for x in zip(*expected)]
            assert solved_det == det
            assert det == bareiss_det(rows)
        else:
            assert abs(bareiss_det(rows)) == (0 if kind == "two-units-on-one-row" else 2)
            with pytest.raises(ValueError) as expected:
                dense_inverse_unimodular(m)
            assert str(result) == str(expected.value) == "matrix is not unimodular"

    def test_rejects_a_matrix_that_is_not_square(self):
        with pytest.raises(ValueError, match="^only square matrices have inverses$"):
            zlinalg.solve_unimodular(from_rows([[1, 0]]), [((0, 1),)])


class TestSmithNormalForm:
    def test_textbook_example(self):
        m = from_rows([[2, 0], [0, 3]])
        assert minor_gcd_invariant_factors([[2, 0], [0, 3]]) == (1, 6)
        assert smith_normal_form(m) == (1, 6)

    def test_identity(self):
        for k in (1, 2, 5):
            assert smith_normal_form(identity(k)) == (1,) * k

    def test_dependent_standard_vectors(self):
        rows = [[1, 0, 0], [1, 1, 0], [0, 1, 0]]
        assert fraction_rank(rows) == 2
        assert minor_gcd_invariant_factors(rows) == (1, 1)
        assert smith_normal_form(from_rows(rows)) == (1, 1)

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(977)
        for _ in range(250):
            rows = random_matrix_rows(rng, max_size=4)
            m = from_rows(rows)
            assert smith_normal_form(m) == minor_gcd_invariant_factors(rows)

    @given(square_matrices())
    @settings(max_examples=150)
    def test_det_is_product_of_factors_up_to_sign(self, m):
        factors = smith_normal_form(m)
        det = determinant(m)
        if len(factors) < m.rows:
            assert det == 0
        else:
            prod = 1
            for f in factors:
                prod *= f
            assert abs(det) == prod

    @given(square_matrices(max_size=4))
    @settings(max_examples=150)
    def test_rank_and_divisibility(self, m):
        factors = smith_normal_form(m)
        assert len(factors) == fraction_rank(matrix_rows(m))
        assert all(f > 0 for f in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


@st.composite
def rows_with_unit_rows(draw):
    """An r x c integer matrix, r, c <= 5, some of whose rows are set to +-e_j: repeated, sharing a column
    with other rows, or becoming +-e_j only once another is split off."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    bound = draw(st.sampled_from((1, 2, 6)))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=c, max_size=c), min_size=r, max_size=r))
    for i in draw(st.lists(st.integers(0, r - 1), max_size=r)):
        j, sign = draw(st.integers(0, c - 1)), draw(st.sampled_from((1, -1)))
        rows[i] = [sign if q == j else 0 for q in range(c)]
    return rows


class TestInvariantFactors:
    """Splitting off the rows with one entry +-1 gives the dense Smith normal form's factors."""

    @settings(max_examples=300, deadline=None)
    @given(rows_with_unit_rows())
    @example([[0, 0], [0, 0]])
    @example([[1, 0], [1, 0], [3, 5]])  # a repeated unit row
    @example([[1, 1, 0], [0, -1, 0], [2, 0, 4]])  # [1, 1, 0] is a unit row once e_1 is split off
    @example([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    def test_matches_the_dense_form_and_the_minor_gcds(self, rows):
        factors = invariant_factors(rows)
        assert factors == smith_normal_form(from_rows(rows)) == minor_gcd_invariant_factors(rows)

    @pytest.mark.parametrize("k", (1, 2, 5))
    def test_vector_sets_of_a_mutated_w(self, k):
        """W's vectors with d0's set to 2 e_0: every set of n - 1 of them, as the failure reasons read them."""
        n = 2 * (k + 1)
        vectors = [v.entries for v in eta_standard(n).values()]
        vectors[0] = (2,) + (0,) * (n - 2)
        for kept in itertools.combinations(vectors, n - 1):
            assert invariant_factors(kept) == smith_normal_form(from_rows(kept))

    def test_no_rows(self):
        assert invariant_factors([]) == ()


class TestLatticeChecks:
    def test_unimodular_examples(self):
        assert is_unimodular_basis([(0, 0, 1), (1, 1, 0), (1, 0, 0)], 3)
        assert is_unimodular_basis([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        assert not is_unimodular_basis([(1, 0, 0), (1, 1, 0), (0, 1, 0)], 3)
        assert not is_unimodular_basis([(1, 0, 0), (0, 1, 0)], 3)  # wrong count

    def test_unimodular_length_mismatch(self):
        with pytest.raises(ValueError):
            is_unimodular_basis([(1, 0), (0, 1, 0), (0, 0, 1)], 3)

    def test_direct_summand_examples(self):
        assert is_direct_summand([(1, 1, 0), (0, 1, 0)], 3)
        assert not is_direct_summand([(2, 0, 0)], 3)
        assert not is_direct_summand([(1, 0, 0), (1, 1, 0), (0, 1, 0)], 3)

    def test_direct_summand_empty_rejected(self):
        with pytest.raises(ValueError):
            is_direct_summand([], 3)

    def test_duplicate_vectors_fail(self):
        assert not is_direct_summand([(1, 0, 0), (1, 0, 0)], 3)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=120)
    def test_square_summand_equivalent_to_unimodular(self, k, data):
        vectors = [
            tuple(data.draw(st.integers(-3, 3)) for _ in range(k)) for _ in range(k)
        ]
        if any(all(x == 0 for x in v) for v in vectors):
            assert not is_direct_summand(vectors, k)
        else:
            assert is_direct_summand(vectors, k) == is_unimodular_basis(vectors, k)


class TestPermutations:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_sign_examples(self):
        assert permutation_sign(Permutation((0, 1, 2, 3, 4))) == 1
        # the facet swap for n = 4 and n = 6, by direct substitution
        assert permutation_sign(Permutation((3, 4, 2, 0, 1))) == 1
        assert permutation_sign(Permutation((5, 4, 6, 3, 1, 0, 2))) == -1

    @given(permutations(), st.data())
    @settings(max_examples=100)
    def test_sign_multiplicative(self, p, data):
        q = Permutation(tuple(data.draw(st.permutations(range(len(p.images))))))
        p_after_q = Permutation(tuple(p(q(j)) for j in range(len(p.images))))
        assert permutation_sign(p_after_q) == permutation_sign(p) * permutation_sign(q)


class TestApplyAndInverse:
    def test_identity_application(self):
        assert apply_matrix(identity(4), (5, -1, 2, 0)) == (5, -1, 2, 0)

    def test_antidiagonal_action(self):
        d = from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert apply_matrix(d, (1, 0, 0)) == (0, 0, 1)
        assert apply_matrix(d, (1, 1, 0)) == (0, 1, 1)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_matrix(identity(3), (1, 2))
        with pytest.raises(ValueError):
            apply_matrix(from_rows([[1, 2, 3], [4, 5, 6]]), (1, 2, 3))

    def test_products_match_entrywise_sums(self):
        rng = random.Random(8)
        for _ in range(60):
            a = from_rows(random_matrix_rows(rng, max_size=5, lo=-9, hi=9))
            width = rng.randint(1, 5)
            b = from_rows([[rng.randint(-9, 9) for _ in range(width)] for _ in range(a.cols)])
            expected = [
                [sum(a.row(i)[t] * b.row(t)[j] for t in range(a.cols)) for j in range(b.cols)]
                for i in range(a.rows)
            ]
            assert matmul(a, b) == from_rows(expected)
            square = from_rows(random_matrix_rows(rng, max_size=5, square=True))
            v = [rng.randint(-9, 9) for _ in range(square.cols)]
            assert apply_matrix(square, v) == tuple(
                sum(square.row(i)[j] * v[j] for j in range(square.cols)) for i in range(square.rows)
            )

    def test_inverse_unimodular(self):
        rng = random.Random(5)
        for _ in range(50):
            # random unimodular matrix from row operations on the identity
            n = rng.randint(1, 5)
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(6):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = rng.randint(-2, 2)
                    rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            m = from_rows(rows)
            inverse, det = inverse_unimodular(m)
            assert matmul(m, inverse).entries == identity(n).entries
            assert det == cofactor_det(rows)

    def test_inverse_rejects_non_unimodular(self):
        singular_or_det_2 = (
            [[2, 0], [0, 1]],
            [[1, 1], [1, -1]],
            [[0, 1], [0, 3]],
            [[2, 3, 0], [4, 5, 0], [1, 1, 2]],
        )
        for rows in singular_or_det_2:
            with pytest.raises(ValueError, match="not unimodular"):
                inverse_unimodular(from_rows(rows))


NEAR_MISSES = ("entry-2", "repeated-column", "zero-row", "extra-entry")


@st.composite
def near_signed_permutations(draw, max_size=40):
    """A signed permutation matrix, as rows, and one change that makes it none: its kind and the rows."""
    p, signs = draw(signed_permutation_matrices(max_size))
    rows = signed_permutation_rows((p, signs))
    n = len(rows)
    kind = draw(st.sampled_from(NEAR_MISSES if n > 1 else NEAR_MISSES[::2]))
    i = draw(st.integers(0, n - 1))
    if kind == "entry-2":
        rows[i][p(i)] *= 2
    elif kind == "zero-row":
        rows[i] = [0] * n
    else:  # another row's column, for a repeated column or for an extra entry
        j = p(draw(st.sampled_from([r for r in range(n) if r != i])))
        if kind == "repeated-column":
            rows[i][p(i)] = 0
        rows[i][j] = draw(st.sampled_from((1, -1, 2, -5)))
    return kind, rows


class TestSignedPermutationDeterminant:
    """``determinant`` reads a signed permutation matrix's determinant off its rows, with no elimination.

    Any other matrix, however close, takes the fraction-free elimination, and
    both paths must equal the Bareiss oracle.
    """

    @staticmethod
    def determinant_and_eliminations(rows):
        calls = []
        reduce = zlinalg.fraction_free_reduce

        def counting(a):
            calls.append(len(a))
            return reduce(a)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(zlinalg, "fraction_free_reduce", counting)
            return determinant(from_rows(rows)), len(calls)

    @given(signed_permutation_matrices())
    @settings(max_examples=150, deadline=None)
    @example((Permutation(tuple(range(39, -1, -1))), [1] * 40))  # delta' at n = 41
    def test_signed_permutations(self, case):
        rows = signed_permutation_rows(case)
        assert self.determinant_and_eliminations(rows) == (bareiss_det(rows), 0)

    @given(near_signed_permutations())
    @settings(max_examples=300, deadline=None)
    def test_near_misses(self, case):
        kind, rows = case
        det, eliminations = self.determinant_and_eliminations(rows)
        assert (det, eliminations) == (bareiss_det(rows), 1)
        if kind == "entry-2":
            assert abs(det) == 2
        elif kind in ("repeated-column", "zero-row"):
            assert det == 0
