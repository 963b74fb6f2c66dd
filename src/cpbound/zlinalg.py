"""Exact integer linear algebra on Python's arbitrary-precision integers.

Matrices are immutable value types that store each row's nonzero entries
(``Entries``), so a matrix with O(n) of them is built, solved and applied
in O(n); reading one densely, row by row, is left to the Smith normal form
and the tests.  The one fraction-free (Bareiss) Gauss-Jordan elimination,
which gives determinants, the cores of unimodular systems and of the Gale
vectors that ``charfn`` judges W's vertices by, runs on sparse rows, dicts
from column to nonzero entry, and finds a column's rows through a column
index; ``column_product`` maps a vector's nonzero entries to its image's.
On W's glue path the determinant of delta' is its permutation's sign,
solving P3's basis eliminates a core of at most 2 x 2, and applying delta'
takes O(1) steps per nonzero entry.  The Smith normal form is the classical
dense pivot-and-reduce algorithm, run only on a failing vertex set and by
``is_direct_summand``, and ``invariant_factors`` hands it what is left of
such a set once every row with a single entry +-1 is split off.  No floats,
no machine-word arithmetic: intermediate determinant values overflow 64
bits already at modest sizes.

Pivot selection is deterministic: the fraction-free elimination takes the
columns in index order and the first nonzero entry of the pivot column at
or below the pivot row, and the Smith normal form the smallest-magnitude
nonzero entry of the working submatrix, ties broken in row-major order.
The callers of the fraction-free elimination order its columns
``sparsest_first``, by (number of nonzero entries, index), Markowitz's
rule, and do not eliminate a unit vector that ``unit_vectors`` finds at
all: they peel it, and eliminate only the rest.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from itertools import chain, compress

from .record import Record


class Entries(Record):
    """A matrix's entries in row-major order, stored as each row's nonzero entries.

    ``nonzero[i]`` holds row i's nonzero entries as (column, value) pairs by
    column, so a matrix with O(n) nonzero entries is built and scanned in
    O(n).  Iterated, it reads every entry, zeros included, one dense ``row``
    at a time: the one dense read of a matrix.
    """

    __slots__ = ("cols", "nonzero")

    def row(self, i: int) -> tuple[int, ...]:
        return dense(self.cols, self.nonzero[i])

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(map(self.row, range(len(self.nonzero))))


class IntMatrix(Record):
    """Immutable integer matrix; ``entries`` stores its rows' nonzero entries and reads row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[int] | Entries) -> None:
        """The matrix with the given entries: a dense row-major sequence, or ``Entries``, kept as they are."""
        if rows < 1 or cols < 1:
            raise ValueError("matrix needs at least one row and one column")
        if isinstance(entries, Entries):
            if (len(entries.nonzero), entries.cols) != (rows, cols):
                given = f"{len(entries.nonzero)}x{entries.cols}"
                raise ValueError(f"{rows}x{cols} matrix given the entries of a {given} one")
        else:
            if len(entries) != rows * cols:
                raise ValueError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
            places = range(cols)
            given = (entries[p : p + cols] for p in range(0, rows * cols, cols))
            entries = Entries(cols, tuple([tuple(zip(compress(places, row), compress(row, row))) for row in given]))
        super().__init__(rows, cols, entries)

    @classmethod
    def from_nonzero(cls, cols: int, rows: Sequence[Mapping[int, int]]) -> "IntMatrix":
        """The matrix whose row i maps columns to nonzero entries as ``rows[i]`` does; every other entry is 0."""
        if any(0 in row.values() for row in rows):
            raise ValueError("a zero given as a nonzero entry")
        nonzero = tuple([tuple(sorted(row.items())) for row in rows])
        if any(row[0][0] < 0 or row[-1][0] >= cols for row in nonzero if row):
            raise ValueError(f"a column outside 0..{cols - 1}")
        return cls(len(rows), cols, Entries(cols, nonzero))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries.row(i)


class Permutation(Record):
    """A bijection of {0, ..., m} given by its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection of 0..{len(images) - 1}: {images}")
        super().__init__(images)

    def __call__(self, j: int) -> int:
        return self.images[j]


def sparsest_first(counts: Sequence[int]) -> list[int]:
    """The places of ``counts``, each row's or column's nonzero entries, by (count, place): Markowitz's rule."""
    return sorted(range(len(counts)), key=counts.__getitem__)  # a stable sort keeps ties in place order


def fraction_free_reduce(a: list[dict[int, int]]) -> tuple[list[int], int, int]:
    """Reduce the sparse rows of ``a`` in place by fraction-free Gauss-Jordan elimination.

    A row maps columns to nonzero entries; no zero is stored.  Column by
    column, over the columns holding an entry (no step fills an empty one),
    the first row at or below row t with an entry there is swapped into row
    t, and every other row i becomes
    (row_i * piv - row_i[j] * row_t) // prev, where piv is the new pivot and
    prev the one before it; by Sylvester's identity every division is exact.
    A row without an entry in the pivot column is skipped while piv == prev,
    when the step leaves it as it is.  A column index, each column's rows,
    kept up to date as rows swap and change, finds the pivot row and those
    rows from the column's own entries, not by testing every row.  Returns
    the pivot columns, the last pivot d and the sign of the row swaps.  When
    every row gets a pivot, the pivot columns end as d * I, and d is sign
    times the determinant of the original rows on those columns.
    """
    holding: dict[int, set[int]] = {}  # column -> the rows with an entry there
    for i, row in enumerate(a):
        for c in row:
            holding.setdefault(c, set()).add(i)
    pivots: list[int] = []
    prev = sign = 1
    for j in sorted(holding):
        t = len(pivots)
        if t == len(a):
            break
        p = min([i for i in holding[j] if i >= t], default=None)
        if p is None:
            continue
        if p != t:
            swapped = {t, p}
            for c in a[t].keys() ^ a[p].keys():  # a column of only one of the two rows moves with it
                holding[c] ^= swapped
            a[t], a[p] = a[p], a[t]
            sign = -sign
        row_t = a[t]
        piv = row_t[j]
        for i in range(len(a)) if piv != prev else [*holding[j]]:
            if i == t:
                continue
            row = a[i]
            f = row.get(j, 0)
            new = {c: x * piv for c, x in row.items()}
            for c, y in row_t.items():
                new[c] = new.get(c, 0) - f * y
            a[i] = {c: x // prev for c, x in new.items() if x}
            for c in row.keys() ^ a[i].keys():  # row i gained or lost its entry there
                holding[c] ^= {i}
        prev = piv
        pivots.append(j)
    return pivots, prev, sign


def determinant(m: IntMatrix) -> int:
    """Exact determinant: a signed permutation's sign times its entries, any other by fraction-free elimination."""
    if m.rows != m.cols:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    rows = m.entries.nonzero
    if all(len(row) == 1 for row in rows):
        images, entries = zip(*[row[0] for row in rows])
        if len(set(images)) == m.rows and set(entries) <= {1, -1}:
            return permutation_sign(Permutation(images)) * (-1) ** entries.count(-1)
    pivots, d, sign = fraction_free_reduce([dict(row) for row in rows])
    return sign * d if len(pivots) == m.rows else 0


def _find_pivot(a: list[list[int]], t: int, nrows: int, ncols: int) -> tuple[int, int] | None:
    """Smallest-magnitude nonzero entry of a[t:, t:], row-major tie break."""
    best: tuple[int, int] | None = None
    for i in range(t, nrows):
        for j in range(t, ncols):
            v = a[i][j]
            if v != 0 and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix.

    Returns the positive diagonal of the Smith normal form with trailing
    zeros dropped, so the length of the result is the rank.
    """
    a = [list(m.row(i)) for i in range(m.rows)]
    nrows, ncols = m.rows, m.cols
    factors: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        piv = _find_pivot(a, t, nrows, ncols)
        if piv is None:
            break
        pi, pj = piv
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // p
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        dirty = True
            if dirty:
                # A nonzero remainder is strictly smaller than the pivot, so
                # re-pivoting makes progress.
                pi, pj = _find_pivot(a, t, nrows, ncols)  # type: ignore[misc]
                a[t], a[pi] = a[pi], a[t]
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
                continue
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # Fold the offending row into the pivot row; the next clearing
            # pass shrinks the pivot to a proper divisor.
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        factors.append(a[t][t])
        t += 1
    return tuple(factors)


def invariant_factors(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """``smith_normal_form`` of the stacked rows, with every row whose one nonzero entry is +-1 split off first.

    Subtracting multiples of such a row, at column c, from the others clears
    column c and changes nothing else, which leaves a 1 x 1 block: an
    invariant factor 1, and the matrix without that row and column.  Rows
    that become such a row are split off in turn, and zero rows and columns
    are dropped, so a vector set of W, all but a few of them unit vectors,
    leaves a few rows for the dense algorithm.
    """
    places = range(len(rows[0]) if rows else 0)
    rest = [dict(zip(compress(places, row), compress(row, row))) for row in rows]
    ones = 0
    while True:
        rest = [row for row in rest if row]  # a zero row adds no factor
        split: dict[int, int] = {}  # column -> its first row with one entry, +-1, there
        for i, row in enumerate(rest):
            if len(row) == 1 and abs(next(iter(row.values()))) == 1:
                split.setdefault(next(iter(row)), i)
        if not split:
            break
        ones += len(split)
        taken = set(split.values())
        rest = [{j: x for j, x in row.items() if j not in split} for i, row in enumerate(rest) if i not in taken]
    if not rest:
        return (1,) * ones
    place = {j: c for c, j in enumerate(sorted(set().union(*rest)))}
    rest = [{place[j]: x for j, x in row.items()} for row in rest]
    return (1,) * ones + smith_normal_form(IntMatrix.from_nonzero(len(place), rest))


def is_direct_summand(vectors: Sequence[Sequence[int]], k: int) -> bool:
    """True iff the vectors span a direct summand of Z^k of their own count.

    Certified by the Smith normal form of the stacked matrix: all invariant
    factors must equal 1 and there must be as many of them as vectors (so
    repeated vectors or dependent sets fail).
    """
    vecs = [tuple(int(x) for x in v) for v in vectors]
    for v in vecs:
        if len(v) != k:
            raise ValueError(f"vector {v} has length {len(v)}, expected {k}")
    if not vecs:
        raise ValueError("need at least one vector")
    factors = invariant_factors(vecs)
    return len(factors) == len(vecs) and all(f == 1 for f in factors)


def permutation_sign(p: Permutation) -> int:
    """Parity of a permutation: +1 for even, -1 for odd."""
    sign = 1
    seen = [False] * len(p.images)
    for start in range(len(p.images)):
        if seen[start]:
            continue
        length = 0
        c = start
        while not seen[c]:
            seen[c] = True
            c = p.images[c]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def dense(length: int, nonzero: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The vector of ``length`` entries whose nonzero ones are the (place, value) pairs ``nonzero``."""
    out = [0] * length
    for j, x in nonzero:
        out[j] = x
    return tuple(out)


def column_product(m: IntMatrix) -> Callable[[Iterable[tuple[int, int]]], tuple[tuple[int, int], ...]]:
    """The map v -> m v on the nonzero (place, value) pairs of vectors of length ``m.cols``, to m v's, by place.

    m v is x * column j of m summed over v's nonzero x = v_j.
    """
    columns: list[list[tuple[int, int]]] = [[] for _ in range(m.cols)]
    for i, row in enumerate(m.entries.nonzero):  # each column's nonzero entries, collected once
        for j, x in row:
            columns[j].append((i, x))

    def product(v: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
        out: dict[int, int] = {}
        for j, x in v:
            for i, y in columns[j]:
                out[i] = out.get(i, 0) + x * y
        return tuple(sorted([(i, y) for i, y in out.items() if y]))

    return product


def apply_matrix(m: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    """Matrix-vector product over Z; m must be square of the vector's size."""
    if m.rows != m.cols or m.cols != len(v):
        raise ValueError(f"cannot apply {m.rows}x{m.cols} matrix to a vector of length {len(v)}")
    return dense(m.rows, column_product(m)([(j, x) for j, x in enumerate(map(int, v)) if x]))


def unit_vectors(vectors: Iterable[Sequence[tuple[int, int]]]) -> dict[int, tuple[int, int]]:
    """place -> (index, s) for each of ``vectors``, by nonzero (place, value) pairs, that is s = +-1 at one place
    no earlier such vector took: the unit vectors to peel."""
    peeled: dict[int, tuple[int, int]] = {}
    for j, v in enumerate(vectors):
        if len(v) == 1 and v[0][1] in (1, -1):
            peeled.setdefault(v[0][0], (j, v[0][1]))
    return peeled


def solve_unimodular(m: IntMatrix, columns: Sequence[Iterable[tuple[int, int]]]) -> tuple[list[dict[int, int]], int]:
    """X with m X = V, by rows (dicts from right-hand side to nonzero entry), and det m = +-1; V is ``columns``.

    The unit columns of m that ``unit_vectors`` finds, j with s = +-1 at
    row i, are peeled: with the pairs (i, j) first m is [[S, X], [0, K]],
    S = diag(s), so only [K P | V] is reduced, P the ``sparsest_first``
    order of K's columns, to [d * I | d * (K P)^-1 V], and m is unimodular
    exactly when K has full rank and |d| = 1.  Row j of X is then
    s * (row i of V - the sum of m[i, c] * row c of X over the core columns
    c).  det m is d times the signs of the row swaps, of s and of the
    pairing of columns with diagonal rows.  m X = V is checked on m's sparse
    columns.
    """
    if m.rows != m.cols:
        raise ValueError("only square matrices have inverses")
    n = m.rows
    rows = m.entries.nonzero
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # each column's nonzero entries: (row, value)
    for i, row in enumerate(rows):
        for j, x in row:
            cols[j].append((i, x))
    peeled = unit_vectors(cols)  # row -> the column peeled at it, and its entry there, +-1
    core_rows = [i for i in range(n) if i not in peeled]
    core = sorted(set(range(n)) - {j for j, _ in peeled.values()})
    order = [core[c] for c in sparsest_first([sum(i not in peeled for i, _ in cols[j]) for j in core])]
    place = {j: c for c, j in enumerate(order)}  # column c of K P is column order[c] of m
    r = len(order)
    given: dict[int, dict[int, int]] = {}  # row i of V: right-hand side -> its entry there
    for t, v in enumerate(columns):
        for i, x in v:
            given.setdefault(i, {})[t] = x
    a = [{place[j]: x for j, x in rows[i] if j in place} | {r + t: x for t, x in given.get(i, {}).items()}
         for i in core_rows]
    pivots, d, sign = fraction_free_reduce(a)
    if pivots != list(range(r)) or abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    solved: list[dict[int, int]] = [{}] * n  # the rows of X; every row is set below
    pairing = [0] * n  # column -> its row on the diagonal of the block-triangular form
    for c, row in enumerate(a):  # row c of (K P)^-1 V is row order[c] of X
        solved[order[c]] = {t - r: d * x for t, x in row.items() if t >= r}
        pairing[order[c]] = core_rows[c]
    det = sign * d
    for i, (j, s) in peeled.items():
        row = {t: s * x for t, x in given[i].items()} if i in given else {}
        for c, x in rows[i]:  # j and core columns only
            if c != j:
                for t, y in solved[c].items():
                    row[t] = row.get(t, 0) - s * x * y
        solved[j] = row if all(row.values()) else {t: y for t, y in row.items() if y}
        pairing[j] = i
        det *= s
    product: dict[tuple[int, int], int] = {}  # (row, right-hand side) -> its entry of m X, by m's columns
    for c, row in enumerate(solved):
        for t, y in row.items():
            for i, x in cols[c]:
                product[i, t] = product.get((i, t), 0) + x * y
    if {it: x for it, x in product.items() if x} != {(i, t): x for i, row in given.items() for t, x in row.items()}:
        raise ArithmeticError("row reduction did not solve the system")  # cannot happen
    return solved, det * permutation_sign(Permutation(tuple(pairing)))


def inverse_unimodular(m: IntMatrix) -> tuple[IntMatrix, int]:
    """Exact inverse of a matrix with determinant +-1, and that determinant: ``solve_unimodular`` of m B = I."""
    rows, det = solve_unimodular(m, [((j, 1),) for j in range(m.rows)])
    return IntMatrix.from_nonzero(m.rows, rows), det
