"""Characteristic vectors and pairs over simple polytopes.

A characteristic vector is an element of Z^r up to global sign, stored as the
representative whose first nonzero entry is positive.  A characteristic pair
maps some facets of a polytope to such vectors; facets left unmapped are
boundary facets.  Validity is the lattice condition: at every vertex the
mapped vectors must span a direct summand of Z^r (a unimodular basis when
there are r of them).  Vertex-level checking suffices because every nonempty
facet intersection contains a vertex and any subset of a basis that is a
direct summand is again one.

A vertex with r vectors is a set S of r rows of the m x r matrix M that
stacks the vectors of all mapped facets, so its determinant is a maximal
minor of M.  One exact integer elimination certifies all of them.
Fraction-free Gauss-Jordan elimination of M^T picks r independent rows A,
the anchor, and ends with d * I on their columns, where |d| = |det M_A|, and
with an integer column Y_j on every other row j, such that d * M_j = Y_j M_A
(Cramer's rule).  Stacking d * e_t for the anchor rows of S and Y_j for the
others gives a matrix C with C M_A = d * M_S, and expanding det C along its
d * e_t rows gives, with s = |S - A|,

    |det Y[S - A, A - S]| = |d|^(s - 1) * |det M_S|.

So S is a basis of Z^r exactly when |det Y[S - A, A - S]| = |d|^(s - 1), an
integer minor of size at most m - r; for s = 0, S = A and the condition is
|d| = 1.  When rank M < r there is no anchor and no full-count vertex is
unimodular.

The elimination is ``zlinalg.fraction_free_reduce``, on sparse rows, and it
is the one this module runs: it reduces M^T for vertex validation, and each
minor Y[S - A, A - S] of size 3 or more, gives the determinant for the
witness check of a delta that is no signed permutation (delta' is one, and
its determinant is read off its rows), and inverts the core of the basis of
a simplex pair in ``normalize_simplex_pair``.  A minor of size 1 or 2 is
evaluated directly, as the entry or as ad - bc.  It pivots on its columns
in the order given, so ``validate`` gives it the rows of M in
``zlinalg.sparsest_first`` order, by (number of nonzero entries, row).  On W
the anchor is then the n - 1 unit eta vectors, d = 1 and the reduction of
M^T updates no row.  ``zlinalg.inverse_unimodular`` peels the basis's unit
columns, reading their rows of the inverse off by back-substitution, and
eliminates only the rest: on W's P3 the two dense eta columns on the rows
no unit column took, at most 2 x 2.

``validate`` reads one polytope, the truncated n-simplex that every
``WManifold`` is decoded to, where each vertex carries r = n - 1 vectors;
``tests/oracles.py`` keeps the incidence-mask path for any other pair.  It
judges a vertex by the assigned rows it misses, its key, and each distinct
class of key once; it walks the vertices again only when a class fails.  A
key's class is the multiset of its rows' classes in the certificate: a free
row, outside A, is its own class, and an anchor row's class is its column
of Y at the free rows, since the minor Y[S - A, A - S] reads nothing else.
Vertex (i, m) misses the rows of d{i} and d{m}, and the vertices on the cut
facet of F are F x R, so the classes found are classes(F) x classes(R) over
the three cut faces, in O(n) steps; the labels (i, m, cut) are read only to
list a failing class's vertices.  On W the two dense eta vectors are the
free rows and the n - 1 unit vectors fall into three classes, by which dense
vector holds their 1, so 8 classes, each a minor of at most 2 x 2, cover the
n(n+4)/2 vertices at every k.  A boundary component there is a ``CutPair``,
a view of one cut face F and its complement R, whose vertices are F x R,
whose validity is the pair's report on them and whose translations
``verify_translation`` checks on the parts F and R.
A ``CharVector`` stores its length and its nonzero (place, value) pairs, so
W's vectors are built and read in O(n); ``entries``, the dense view, is
built for JSON, ``demo``, a failing vertex's Smith normal form and the
tests.  Delta, the basis M and its inverse B are stored by their nonzero
entries too, and applied by their nonzero columns to a vector's nonzero
entries; an image is matched to its target's up to sign.  P3's normal form
is read off B M = I: the basis change D B is not built, and of its images
only the residual's, D u, is computed.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from math import prod

from .polytope import (
    SimplePolytope,
    check_keys,
    check_list,
    cut_faces,
    face_as_polytope,
    parse_int,
    polytope_from_json,
    polytope_to_json,
)
from .record import Record
from .zlinalg import (
    Entries,
    IntMatrix,
    Permutation,
    column_product,
    dense,
    determinant,
    fraction_free_reduce,
    inverse_unimodular,
    invariant_factors,
    permutation_sign,
    sparsest_first,
)


class CharVector(Record):
    """A nonzero integer vector in canonical sign form (first nonzero > 0), stored by its length and nonzero entries.

    ``nonzero`` holds the (place, value) pairs by place; ``entries`` is the
    dense view, built when read.
    """

    __slots__ = ("length", "nonzero")

    def __init__(self, length: int, nonzero: tuple[tuple[int, int], ...]) -> None:
        if not nonzero:
            raise ValueError("characteristic vector must be nonzero")
        if nonzero[0][1] < 0:
            raise ValueError(f"{dense(length, nonzero)} is not canonical; use CharVector.canon")
        super().__init__(length, nonzero)

    @classmethod
    def canon(cls, entries: Sequence[int]) -> "CharVector":
        nonzero = [(j, x) for j, x in enumerate(map(int, entries)) if x]
        if nonzero and nonzero[0][1] < 0:
            nonzero = [(j, -x) for j, x in nonzero]
        return cls(len(entries), tuple(nonzero))  # which rejects the zero vector

    @property
    def entries(self) -> tuple[int, ...]:
        return dense(self.length, self.nonzero)

    def __len__(self) -> int:
        return self.length


class CharPair:
    """A polytope with a partial facet -> CharVector assignment."""

    def __init__(
        self,
        polytope: SimplePolytope,
        torus_rank: int,
        assignment: Mapping[str, CharVector],
    ) -> None:
        if torus_rank < 1:
            raise ValueError("torus rank must be positive")
        known = set(polytope.facet_ids)
        for fid, vec in assignment.items():
            if fid not in known:
                raise ValueError(f"assignment references unknown facet {fid}")
            if len(vec) != torus_rank:
                raise ValueError(
                    f"vector on facet {fid} has length {len(vec)}, expected {torus_rank}"
                )
        self.polytope = polytope
        self.torus_rank = torus_rank
        self.assignment = dict(sorted(assignment.items()))
        self.boundary_facet_ids = tuple(f for f in polytope.facet_ids if f not in assignment)
        if not self.boundary_facet_ids and torus_rank != polytope.dim:
            raise ValueError(
                f"a closed pair over a {polytope.dim}-polytope needs torus rank "
                f"{polytope.dim}, got {torus_rank}"
            )


class VertexCheck(Record):
    __slots__ = ("vertex", "facets", "vectors", "ok", "reason")


class ValidationReport(Record):
    __slots__ = ("ok", "checked_vertices", "failures")

    def failing_vertices(self) -> tuple[str, ...]:
        return tuple(f.vertex for f in self.failures)


class _FullCountCertificate:
    """|det| of every set of r rows of an m x r integer matrix M, from one elimination.

    Reduces M^T (r x m, one column per row of M, built from each row's
    nonzero (place, value) pairs) by ``fraction_free_reduce``.  The pivot columns are the
    anchor rows A, the first independent rows in the order given
    (``validate`` gives them sparsest first), and end as d * I, where d, the
    last pivot, is +-det M_A; the column of any other row j holds Y_j with
    d * M_j = Y_j M_A, so ``reduced[t].get(j, 0)`` is Y_j's entry at anchor t.
    Row sets are then judged by the integer identity of the module
    docstring, with no determinant of M_A beyond d; the minor
    Y[S - A, A - S] is evaluated directly when it is 1 x 1 or 2 x 2, and
    reduced by the same elimination when it is larger.

    ``classes`` names each row's class by its first row: a free row, outside
    A, is a class of its own, and an anchor row's class is its column of Y
    at the free rows.  ``is_unimodular(missed)`` reads only which free rows
    are outside ``missed``, the rows of Y[S - A, A - S], and the columns of
    Y of the anchor rows in ``missed`` at those rows, the minor's columns.
    So two sets of missed rows with the same multiset of classes leave out
    the same free rows and give the same minor up to the order of its
    columns: the same |det|, and the same verdict.  When rank M < r there is
    no anchor, every row is its own class and no full-count set is a basis.
    """

    def __init__(self, rows: Sequence[Sequence[tuple[int, int]]], rank: int) -> None:
        work: list[dict[int, int]] = [{} for _ in range(rank)]
        for j, row in enumerate(rows):
            for t, x in row:
                work[t][j] = x
        pivots, d, _ = fraction_free_reduce(work)
        # Anchor row -> its place in Y's columns; None when rank M < r.
        self.anchor = {j: t for t, j in enumerate(pivots)} if len(pivots) == rank else None
        self.det = d if self.anchor is not None else 0
        self.reduced = work
        anchor = self.anchor or {}
        self.free = [j for j in range(len(rows)) if j not in anchor]
        first: dict[tuple[int, ...], int] = {}  # an anchor row's column of Y at the free rows -> its first row
        self.classes = [
            first.setdefault(tuple([work[anchor[j]].get(f, 0) for f in self.free]), j) if j in anchor else j
            for j in range(len(rows))
        ]
        self.members: dict[int, list[int]] = {}  # a class -> its rows, in order
        for j, c in enumerate(self.classes):
            self.members.setdefault(c, []).append(j)

    def first_rows(self, key: Sequence[int]) -> list[int]:
        """Rows whose classes are ``key``, a sorted multiset of classes: the first rows of each class."""
        return [self.members[c][t - key.index(c)] for t, c in enumerate(key)]

    def is_unimodular(self, missed: Sequence[int]) -> bool:
        """Whether the r rows of M other than the m - r rows ``missed`` form a basis of Z^r."""
        if self.anchor is None:
            return False
        outside = [j for j in self.free if j not in missed]
        if not outside:
            return abs(self.det) == 1
        dropped = [self.reduced[self.anchor[j]] for j in missed if j in self.anchor]  # Y's columns A - S
        power = abs(self.det) ** (len(outside) - 1)
        if len(outside) == 1:
            return abs(dropped[0].get(outside[0], 0)) == power
        if len(outside) == 2:  # Y[S - A, A - S] has rows Y_i, Y_j and columns left, right
            (i, j), (left, right) = outside, dropped
            return abs(left.get(i, 0) * right.get(j, 0) - right.get(i, 0) * left.get(j, 0)) == power
        y = [{c: x for c, row in enumerate(dropped) if (x := row.get(j, 0))} for j in outside]
        pivots, d, _ = fraction_free_reduce(y)
        return len(pivots) == len(y) and abs(d) == power


def _failure_reason(vectors: tuple[tuple[int, ...], ...]) -> str:
    factors = invariant_factors(vectors)
    return f"vectors do not span a direct summand (invariant factors {factors})"


def validate(pair: CharPair, labels: Callable[[], Sequence[tuple[int, int, int]]]) -> ValidationReport:
    """Check the direct-summand condition at every vertex of a pair over the truncated n-simplex; never raises.

    Every root facet d0..dn carries a vector of length n - 1, so vertex
    (i, m) misses the two rows of d{i} and d{m}, its key, and each distinct
    class of key is judged once.  The rows are numbered in
    ``sparsest_first`` order, as the pair's ``_FullCountCertificate`` takes
    them, so that its anchor is the sparsest independent rows: on W the
    n - 1 unit vectors, with d = 1.  The classes are read off the blocks
    F x R (module docstring), each judged by ``is_unimodular`` on its
    ``first_rows``.  ``labels``, a function that lists each vertex's
    (i, m, cut) in vertex order, is called only when a class fails, to walk
    the vertices again, in order: each distinct failing key gets its own
    Smith normal form of the dense vectors, whose invariant factors, not
    always shared by its class, give its reason, and only a failing
    vertex's id is read off the polytope.
    """
    ids = tuple(pair.assignment)  # sorted, like facet_ids
    vectors = [pair.assignment[f] for f in ids]
    order = sparsest_first([len(v.nonzero) for v in vectors])
    place = {ids[row]: t for t, row in enumerate(order)}  # facet -> its row of M in the certificate's order
    n = len(ids) - 1
    root = [place[f"d{j}"] for j in range(n + 1)]
    certificate = _FullCountCertificate([vectors[row].nonzero for row in order], pair.torus_rank)
    classes = certificate.classes

    def class_of(missed: tuple[int, int]) -> tuple[int, int]:
        a, b = classes[missed[0]], classes[missed[1]]
        return (a, b) if a < b else (b, a)

    found = set()  # the class pairs of each block F x R
    for face in cut_faces(n).values():
        inside = {classes[root[i]] for i in face}
        outside = {classes[root[m]] for m in range(n + 1) if m not in face}
        found |= {(a, b) if a < b else (b, a) for a in inside for b in outside}
    failed = set()
    for key in found:
        if not certificate.is_unimodular(certificate.first_rows(key)):
            failed.add(key)
    entries = [v.entries for v in vectors] if failed else []
    reasons: dict[tuple[int, int], str] = {}  # the failing keys
    failures = []
    for j, (i, m, _) in enumerate(labels() if failed else ()):
        missed = (root[i], root[m]) if root[i] < root[m] else (root[m], root[i])
        if class_of(missed) in failed:
            rows = [row for row, f in enumerate(ids) if place[f] not in missed]
            vertex = pair.polytope.vertices[j].id
            kept = tuple([entries[row] for row in rows])
            if missed not in reasons:
                reasons[missed] = _failure_reason(kept)
            failures.append(VertexCheck(vertex, tuple([ids[row] for row in rows]), kept, False, reasons[missed]))
    return ValidationReport(not failures, n * (n + 4) // 2, tuple(failures))


def restrict_to_facet(pair: CharPair, facet_id: str) -> CharPair:
    """The closed pair induced on a boundary facet.

    The facet polytope keeps the ids of the facets cutting it, and each such
    facet keeps its vector; every facet meeting the boundary facet must be
    mapped.
    """
    if facet_id not in pair.polytope.facet_ids:
        raise ValueError(f"unknown facet {facet_id}")
    if facet_id in pair.assignment:
        raise ValueError(f"facet {facet_id} carries a vector; only boundary facets restrict")
    sub = face_as_polytope(pair.polytope, [facet_id])
    missing = [f for f in sub.facet_ids if f not in pair.assignment]
    if missing:
        raise ValueError(f"facets {missing} meet {facet_id} but carry no vector")
    assignment = {f: pair.assignment[f] for f in sub.facet_ids}
    return CharPair(sub, pair.torus_rank, assignment)


class CutPair:
    """The closed pair that W induces on one cut facet, a view of the cut face F, ``face``, and its complement R.

    Its vertices are the (i, m) of F x R, each on every root facet but d{i}
    and d{m}, so its facets are the d{j} for the ``roots`` j, the parts of 2
    or more elements: a part's one element is missed by every vertex.  Its
    validation ``report`` is W's on its vertices.
    """

    def __init__(
        self, face: Sequence[int], rest: Sequence[int], assignment: Mapping[str, CharVector], rank: int,
        report: ValidationReport,
    ) -> None:
        self.face, self.rest = tuple(face), tuple(rest)
        self.roots = tuple(sorted(j for part in (self.face, self.rest) if len(part) > 1 for j in part))
        self.assignment = {f: assignment[f] for f in sorted(f"d{j}" for j in self.roots)}
        self.facet_ids = tuple(self.assignment)
        self.torus_rank = rank  # a closed pair's rank is its dimension
        self.report = report


def eta_standard(n: int) -> dict[int, CharVector]:
    """The standard family of n+1 vectors in Z^(n-1) for even n >= 4, built by their nonzero entries in O(n).

    Index j runs over 0..n; the vector for j is meant for facet ``d{n-j}`` of
    the n-simplex.  Entries (1-based places): a single 1 in place j+1 for
    j < n/2 - 1; ones up to place n/2 for j = n/2 - 1; a single 1 in place j
    for n/2 <= j < n; ones from place n/2 on for j = n.
    """
    if n < 4 or n % 2:
        raise ValueError(f"need even n >= 4, got {n}")
    half = n // 2
    ones = {half - 1: range(half), n: range(half - 1, n - 1)}  # the two dense vectors' places
    places = {j: ones.get(j, (j if j < half else j - 1,)) for j in range(n + 1)}
    return {j: CharVector(n - 1, tuple([(p, 1) for p in places[j]])) for j in range(n + 1)}


def eta_facet_assignment(n: int) -> dict[str, CharVector]:
    """The standard vectors keyed by simplex facet id: ``d{m}`` carries eta_{n-m}."""
    eta = eta_standard(n)
    return {f"d{m}": eta[n - m] for m in range(n + 1)}


def rho_permutation(n: int) -> Permutation:
    """The involution of {0..n} that matches the basis reversal on the vectors.

    It swaps j with n-1-j on the two middle ranges, swaps n/2-1 with n, and
    fixes n/2.  Even for n = 0 mod 4, odd for n = 2 mod 4.
    """
    if n < 4 or n % 2:
        raise ValueError(f"need even n >= 4, got {n}")
    half = n // 2
    images = []
    for j in range(n + 1):
        if j == half - 1:
            images.append(n)
        elif j == half:
            images.append(half)
        elif j == n:
            images.append(half - 1)
        else:
            images.append(n - 1 - j)
    return Permutation(tuple(images))


def _basis_reversal(n: int) -> Permutation:
    """The reversal i -> n-2-i of the n-1 basis places of Z^(n-1)."""
    if n < 4 or n % 2:
        raise ValueError(f"need even n >= 4, got {n}")
    return Permutation(tuple(range(n - 2, -1, -1)))


def delta_matrix(n: int) -> IntMatrix:
    """The basis reversal of Z^(n-1): the anti-diagonal permutation matrix."""
    return IntMatrix(n - 1, n - 1, Entries(n - 1, tuple([((j, 1),) for j in _basis_reversal(n).images])))


def rho_facet_bijection(n: int) -> dict[str, str]:
    """Facet relabeling d{j} -> d{n - rho(n-j)} between the two product facets.

    In vector terms this sends the facet carrying eta_i to the facet carrying
    eta_rho(i), which is exactly how the basis reversal acts on the vectors;
    it therefore makes the translation square commute for every even n (and
    agrees with rho applied to facet indices when n = 4).
    """
    rho = rho_permutation(n)
    return {f"d{j}": f"d{n - rho(n - j)}" for j in range(n + 1)}


class TranslationWitness(Record):
    """A facet bijection plus a GL(Z) matrix relating two pairs."""

    __slots__ = ("phi", "delta")

    def __init__(self, phi: Mapping[str, str], delta: IntMatrix) -> None:
        if delta.rows != delta.cols:
            raise ValueError("delta must be square")
        if abs(determinant(delta)) != 1:
            raise ValueError("delta must have determinant +-1")
        if len(set(phi.values())) != len(phi):
            raise ValueError("phi is not injective")
        super().__init__(phi, delta)


class TranslationReport(Record):
    __slots__ = ("ok", "phi_is_isomorphism", "vector_mismatches")


def _named_parts(pair: CutPair, name: Mapping[int, int]) -> set[frozenset[int]]:
    """The parts F and R of ``pair``, renamed by ``name``; -1 for a facet outside it, a part's one element."""
    return {frozenset([name.get(j, -1) for j in part]) for part in (pair.face, pair.rest)}


def verify_translation(pair1: CutPair, pair2: CutPair, w: TranslationWitness) -> TranslationReport:
    """Check that phi is a combinatorial isomorphism and delta carries the vectors across.

    phi, a facet bijection, is an isomorphism exactly when it carries the
    facet pairs {d{i}, d{m}} the vertices of ``pair1`` miss onto those of
    ``pair2``: the edges of K_(F,R), a connected graph, whose parts F and R
    it must then carry onto the parts of ``pair2``.  Vector equality is up
    to global sign: delta v must be the canonical target t or -t.  Delta is
    applied by its nonzero columns, collected once, to each vector's nonzero
    entries, and the image compared with t's nonzero entries.
    """
    if pair1.torus_rank != pair2.torus_rank:
        raise ValueError("pairs have different torus ranks")
    if w.delta.cols != pair1.torus_rank:
        raise ValueError(f"cannot apply {w.delta.rows}x{w.delta.cols} matrix to a vector of length {pair1.torus_rank}")
    phi = dict(w.phi)
    if sorted(phi) != sorted(pair1.facet_ids) or sorted(phi.values()) != sorted(pair2.facet_ids):
        raise ValueError("phi is not a bijection between the facet sets")
    root = {f"d{j}": j for j in pair2.roots}
    images = _named_parts(pair1, {j: root[phi[f"d{j}"]] for j in pair1.roots})
    iso = images == _named_parts(pair2, {j: j for j in pair2.roots})
    delta = column_product(w.delta)
    mismatches = []
    for fid in sorted(pair1.assignment):  # phi carries it to a facet of pair2, which carries a vector
        image, t = delta(pair1.assignment[fid].nonzero), pair2.assignment[phi[fid]].nonzero
        if image != t and tuple([(i, -x) for i, x in image]) != t:
            mismatches.append((fid, phi[fid]))
    return TranslationReport(iso and not mismatches, iso, tuple(mismatches))


class SimplexNormalForm(Record):
    """The residual facet of a valid pair over a simplex, its vector's image D u by nonzero entries, and det D B."""

    __slots__ = ("residual_facet", "residual_image", "det")


def normalize_simplex_pair(pair: CutPair) -> SimplexNormalForm:
    """Change basis so all facets but one carry the standard basis, the last all-ones.

    Works for every valid closed pair over a combinatorial simplex, here the
    component on P3: the lexicographically largest facet is made residual,
    the others are mapped to the standard basis by B = M^-1, M their vectors
    as columns, and vertex unimodularity forces the residual vector's image
    u = B v to have entries +-1, so signs can be absorbed into the basis
    change D * B for D = diag(u), of determinant prod(u) * det M, det M from
    ``inverse_unimodular``.  M and B are built from their nonzero entries,
    never densely; D * B is not built, as B M = I gives the basis facets'
    images u_c e_c, and the residual's is D u = (u_c^2).  The pair's
    validation is its ``report``; the polytope itself is not read.
    """
    d = pair.torus_rank  # a closed pair's rank is its dimension, and every facet carries a vector
    # Its facets are the d + 2 root facets less those of a part of one element:
    # d + 1 exactly when F or R is one vertex, and then it is Delta^d.
    if len(pair.assignment) != d + 1:
        raise ValueError("polytope is not a combinatorial simplex")
    report = pair.report
    if not report.ok:
        first = report.failures[0]
        raise ValueError(
            f"pair is not a valid characteristic pair: vertex {first.vertex} "
            f"({first.reason})"
        )
    ids = sorted(pair.assignment)
    residual = ids[-1]
    rows: list[list[tuple[int, int]]] = [[] for _ in range(d)]  # M's nonzero entries, the basis vectors its columns
    for c, f in enumerate(ids[:-1]):
        for i, x in pair.assignment[f].nonzero:
            rows[i].append((c, x))
    B, det_m = inverse_unimodular(IntMatrix(d, d, Entries(d, tuple(map(tuple, rows)))))
    u = column_product(B)(pair.assignment[residual].nonzero)
    if len(u) != d or any(abs(x) != 1 for _, x in u):  # cannot happen for a valid pair
        raise ArithmeticError(f"residual vector {dense(d, u)} is not a sign vector")
    return SimplexNormalForm(residual, tuple([(c, s * s) for c, s in u]), prod([s for _, s in u]) * det_m)


class OrientationRecord(Record):
    __slots__ = ("sign_rho", "det_delta", "boundary_label")


def orientation_signs(n: int) -> OrientationRecord:
    """Parities of the facet swap and the basis reversal, plus the boundary label.

    The label is "CP" for n = 2 mod 4 and "conjugate-CP" for n = 0 mod 4:
    gluing the two product-facet components through an orientation-reversing
    identification leaves the projective boundary with the conjugate
    orientation exactly when the basis reversal is orientation-reversing.
    """
    if n < 4 or n % 2:
        raise ValueError(f"need even n >= 4, got {n}")
    sign_rho = permutation_sign(rho_permutation(n))
    # delta_matrix(n) is the permutation matrix of the reversal: its
    # determinant is the reversal's sign.
    det_delta = permutation_sign(_basis_reversal(n))
    label = "CP" if n % 4 == 2 else "conjugate-CP"
    return OrientationRecord(sign_rho, det_delta, label)


# --- JSON ---------------------------------------------------------------------


def charpair_to_json(pair: CharPair) -> dict:
    return {
        "torus_rank": pair.torus_rank,
        "polytope": polytope_to_json(pair.polytope),
        "vectors": {fid: list(v.entries) for fid, v in sorted(pair.assignment.items())},
    }


def charpair_from_json(data: dict) -> CharPair:
    check_keys(data, ("torus_rank", "polytope", "vectors"), "pair")
    P = polytope_from_json(data["polytope"])
    rank = parse_int(data["torus_rank"], "torus_rank")
    check_keys(data["vectors"], None, "vectors")
    assignment = {
        str(fid): CharVector.canon([parse_int(x, "vector entry") for x in check_list(vec, f"vector {fid}")])
        for fid, vec in data["vectors"].items()
    }
    return CharPair(P, rank, assignment)
