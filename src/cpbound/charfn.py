"""Characteristic vectors and pairs over simple polytopes.

A characteristic vector is an element of Z^r up to global sign, stored as the
representative whose first nonzero entry is positive.  A characteristic pair
maps some facets of a polytope to such vectors; facets left unmapped are
boundary facets.  Validity is the lattice condition: at every vertex the
mapped vectors must span a direct summand of Z^r (a unimodular basis when
there are r of them).  Vertex-level checking suffices because every nonempty
facet intersection contains a vertex and any subset of a basis that is a
direct summand is again one.

``validate`` reads one polytope, the truncated n-simplex that every
``WManifold`` is decoded to: its n + 1 root facets d0..dn carry vectors in
Z^r, r = n - 1, the rows of the (n + 1) x r matrix M, and vertex (i, m)
carries all of them but those of d{i} and d{m}.  When rank M = r the
integer relations among the rows form a lattice of rank 2, and by Gale
duality (Ziegler, *Lectures on Polytopes*, GTM 152, ch. 6) the maximal
minors of M are those of the complementary rows of the 2-column relation
matrix, up to one factor.  Take r independent rows A, the anchor, and
d = +-det M_A: each of the two other rows, the free rows p and q, has an
integer column Y_j with d * M_j = Y_j M_A (Cramer's rule).  So d e_p - Y_p
and d e_q - Y_q are relations, and row j's Gale vector g_j, its two
coefficients in them up to sign, is (d, 0) on p, (0, d) on q and
(Y_p[t], Y_q[t]) on anchor row t.  Putting free rows in place of anchor
rows through d * M_j = Y_j M_A gives, for the r rows S other than i and m,

    |det M_S| = |det(g_i, g_m)| / |d|,

whatever the anchor.  So vertex (i, m) is a basis of Z^r exactly when
d != 0 and |det(g_i, g_m)| = |d|, which reads g_i and g_m up to sign alone.
When rank M < r no vertex is a basis: every Gale vector is (0, 0), d = 0.

``_gale_vectors`` finds A, d and the free rows' Y by the peel that
``zlinalg``'s module docstring describes, on the rows of M: a row +-e_p
anchors place p with no elimination, and one elimination of the other rows
on the other places finds the rest.  ``validate`` gives it the rows of M
``zlinalg.sparsest_first``, by (number of nonzero entries, row); on W the
peel takes the n - 1 unit eta vectors, d = 1 and no row is reduced.  P3's
normal form (``zlinalg.solve_unimodular``) and the determinant of delta'
take the same peel.

``validate`` keys the root rows by Gale vector and judges each pair of keys
once.  The vertices on the cut facet of F are F x R, so the pairs found are
keys(F) x keys(R) over the three cut faces, in O(n) steps; the labels
(i, m, cut) are read only to list a failing pair's vertices.  On W a unit
vector's Gale vector is its place's entries in the two dense eta vectors,
so the Gale vectors are (1, 0), (0, 1) and (1, 1), and 3 minors judge the
n(n+4)/2 vertices at every k.  The incidence-mask path for any other pair,
and the certificate for any number of rows outside a vertex, are
``tests/oracles.py``'s.  A boundary component of W is a ``CutPair``, a view
of one cut face F and its complement R, whose vertices are F x R, whose
validity is W's report on them and whose translations
``verify_translation`` checks on the parts F and R.
A ``CharVector`` stores its length and its nonzero (place, value) pairs, so
W's vectors are built and read in O(n); ``entries``, the dense view, is
built for JSON, ``demo``, a failing vertex's Smith normal form and the
tests.  Delta and the basis M are stored by their nonzero entries too, and
delta is applied by its nonzero columns to a vector's nonzero entries; an
image is matched to its target's up to sign.  P3's normal form is read off
one solve, M u = v: neither M^-1 nor the basis change is built.
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
    _peeled_elimination,
    column_product,
    dense,
    determinant,
    invariant_factors,
    permutation_sign,
    solve_unimodular,
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


def _gale_vectors(rows: Sequence[Sequence[tuple[int, int]]], rank: int) -> tuple[list[tuple[int, int]], int]:
    """Each row's Gale vector up to sign, and |d|, for r + 2 rows of Z^r given by their nonzero (place, value) pairs.

    The anchor, d and Y are ``zlinalg._peeled_elimination``'s on the rows in
    the order given: the two free rows are its columns with coordinates, and
    the anchor row at place t gets (Y_p[t], Y_q[t]).  Every row gets (0, 0),
    and d = 0, when rank M < r.
    """
    anchor, d, _, coordinates = _peeled_elimination(rank, rows)
    if not d:
        return [(0, 0)] * len(rows), 0
    (p, y_p), (q, y_q) = coordinates.items()
    gale = {p: (d, 0), q: (0, d)} | {j: (y_p.get(t, 0), y_q.get(t, 0)) for t, j in enumerate(anchor)}
    return [max(g, (-g[0], -g[1])) for g in map(gale.__getitem__, range(len(rows)))], abs(d)


def _gale_minor(g: tuple[int, int], h: tuple[int, int]) -> int:
    """|det(g, h)|: the r rows other than two with Gale vectors g and h form a basis of Z^r iff it is |d| != 0."""
    return abs(g[0] * h[1] - g[1] * h[0])


def _failure_reason(vectors: tuple[tuple[int, ...], ...]) -> str:
    factors = invariant_factors(vectors)
    return f"vectors do not span a direct summand (invariant factors {factors})"


def validate(pair: CharPair, labels: Callable[[], Sequence[tuple[int, int, int]]]) -> ValidationReport:
    """Check the direct-summand condition at every vertex of a pair over the truncated n-simplex.

    The vectors must sit on the root facets d0..dn, with length n - 1, as a
    ``WManifold`` checks; ``ValueError`` names the first facet, in id order,
    whose vector has another length, or else the first that is no root
    facet.  Vertex (i, m) passes iff d != 0 and ``_gale_minor(g, h)`` is
    |d|, for g and h the Gale vectors of the rows of d{i} and d{m} (module
    docstring), and each pair of Gale vectors that the blocks F x R meet is
    judged once.  The rows are numbered in ``sparsest_first`` order, as
    ``_gale_vectors`` takes them, so that on W its peel takes the n - 1 unit
    vectors, with d = 1.  ``labels``, a function that lists each vertex's
    (i, m, cut) in vertex order, is called only when a pair fails, to walk
    the vertices again, in order: each distinct failing pair of rows gets
    its own Smith normal form of the dense vectors, whose invariant factors,
    not always shared by rows with the same Gale vectors, give its reason,
    and only a failing vertex's id is read off the polytope.
    """
    ids = tuple(pair.assignment)  # sorted, like facet_ids
    vectors = [pair.assignment[f] for f in ids]
    n = len(ids) - 1
    for f, v in zip(ids, vectors):
        if len(v) != n - 1:
            raise ValueError(f"vector on facet {f} has length {len(v)}, expected {n - 1}")
    order = sparsest_first([len(v.nonzero) for v in vectors])
    place = {ids[row]: t for t, row in enumerate(order)}  # facet -> its row of M in ``_gale_vectors``'s order
    root = [place.get(f"d{j}") for j in range(n + 1)]
    if None in root:  # n + 1 facets carry vectors, so one of them is no root facet
        wrong = min(set(ids) - {f"d{j}" for j in range(n + 1)})  # ids are sorted: the first in id order
        raise ValueError(f"vector on facet {wrong}, which is not one of the root facets d0..d{n}")
    gale, d = _gale_vectors([vectors[row].nonzero for row in order], pair.torus_rank)
    of_root = [gale[row] for row in root]

    found = set()  # the pairs of Gale vectors of each block F x R
    for face in cut_faces(n).values():
        inside = {of_root[i] for i in face}
        outside = {of_root[m] for m in range(n + 1) if m not in face}
        found |= {tuple(sorted((g, h))) for g in inside for h in outside}
    failed = {gh for gh in found if not d or _gale_minor(*gh) != d}
    entries = [v.entries for v in vectors] if failed else []
    reasons: dict[frozenset[int], str] = {}  # the failing pairs of rows
    failures = []
    for j, (i, m, _) in enumerate(labels() if failed else ()):
        if tuple(sorted((of_root[i], of_root[m]))) in failed:
            missed = frozenset((root[i], root[m]))
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
    """The residual facet of a valid pair over a simplex, its vector's image D u by nonzero entries, and det D M^-1."""

    __slots__ = ("residual_facet", "residual_image", "det")


def normalize_simplex_pair(pair: CutPair) -> SimplexNormalForm:
    """Change basis so all facets but one carry the standard basis, the last all-ones.

    Works for every valid closed pair over a combinatorial simplex, here the
    component on P3: the lexicographically largest facet is made residual,
    the others are mapped to the standard basis by M^-1, M their vectors as
    columns, and vertex unimodularity forces the residual vector's image u,
    the solution of M u = v from ``solve_unimodular``, to have entries +-1,
    so signs can be absorbed into the basis change D M^-1 for D = diag(u),
    of determinant prod(u) * det M.  That change carries each basis facet to
    u_c e_c and the residual to D u = (u_c^2), so it is not built, nor is
    M^-1.  The pair's validation is its ``report``; the polytope is not read.
    """
    d = pair.torus_rank  # a closed pair's rank is its dimension, and every facet carries a vector
    # Its facets are the d + 2 root facets less those of a part of one element:
    # d + 1 exactly when F or R is one vertex, and then it is Delta^d.
    if len(pair.assignment) != d + 1:
        raise ValueError("polytope is not a combinatorial simplex")
    report = pair.report
    if not report.ok:
        first = report.failures[0]
        raise ValueError(f"pair is not a valid characteristic pair: vertex {first.vertex} ({first.reason})")
    ids = sorted(pair.assignment)
    residual = ids[-1]
    rows: list[list[tuple[int, int]]] = [[] for _ in range(d)]  # M's nonzero entries, the basis vectors its columns
    for c, f in enumerate(ids[:-1]):
        for i, x in pair.assignment[f].nonzero:
            rows[i].append((c, x))
    m = IntMatrix(d, d, Entries(d, tuple(map(tuple, rows))))
    solved, det_m = solve_unimodular(m, [pair.assignment[residual].nonzero])
    u = [(c, x[0]) for c, x in enumerate(solved) if x]  # the one right-hand side's solution
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
