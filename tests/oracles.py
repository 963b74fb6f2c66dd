"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive and shares no code path with the
fast paths it checks: determinants by cofactor expansion and, at sizes
cofactor expansion cannot reach, by ``bareiss_det``, the full-pivot forward
Bareiss elimination ``zlinalg.determinant`` ran before the library's one
fraction-free Gauss-Jordan routine replaced it; ranks by rational Gaussian
elimination, invariant factors by minor gcds, h-vectors of products
by polynomial multiplication, and polytope labels by a backtracking search
for a facet bijection onto model polytopes, and separating functionals by
``Fraction`` arithmetic at the vertex coordinates.  The truncated simplex has
a face-truncation oracle: the n-simplex, a general ``cut_face`` that walks
the edges leaving a face and places each new vertex from the root vertex
coordinates, and the three cuts ``P1``, ``P2``, ``P3`` applied in turn, the
path ``truncated_simplex`` took before it built its vertices directly, and
``closed_form_coords`` writes its coordinates entry by entry, which the library
makes from each vertex's label only when they are read (``coords_by_id`` reads
any polytope's, keyed by vertex id; ``facet_sets`` its vertices' facet ids).
A polytope stores no edges.  ``edges_of`` derives any polytope's from its
masks (``polytope._derive_edges``, which rejects a ridge on three vertices),
checks that they connect it, and tags each as the library did before it
stopped keeping edges (``EdgeProvenance``): an edge whose ends share a cut
facet is a cut edge; any other is the remnant of the root edge
``A{a}``--``A{b}`` when the original facets are the dim+1 facets ``d{a}`` of
a simplex, a and b the two both ends miss, and otherwise its own root edge.
``checked_polytope`` builds a polytope from vertices given by their facet-id
sets (``SetVertex``) and runs those graph checks at once.  The derivation
has the frozenset oracle it replaced: ``frozenset_derive_edges``, which keys
each (dim-1)-subset as a frozenset of facet-id strings, and
``frozenset_edges``, which runs the constructor's and the graph checks on
those sets and returns ``Edge`` records of sorted vertex ids.
The per-vertex facet sets, which the library now keeps only as masks, have
the frozenset build they replaced: ``frozenset_truncated_simplex_sets``,
``frozenset_face_sets``, ``frozenset_simplex_sets`` and
``frozenset_product_sets``, and ``frozenset_polytope_to_json``, which orders
a polytope's JSON vertices by those sets.  The dropped-facet
navigation table ``navigation`` (at each vertex, the edge leaving through
all its facets but one), which only ``cut_face`` and
``fraction_vertex_indices`` read, lives here too.  Vertex validation has a
second, per-vertex oracle: one ``bareiss_det`` for every distinct
full-count vector set, the path ``validate`` took before it certified them
all from one elimination per pair.  ``FullCountCertificate`` is that
elimination for any co-rank, the certificate ``validate`` ran before it read
W's Gale vectors: it judges a set of rows by an integer minor of any size,
reducing one of size 3 or more, and it has the rational oracle it replaced:
``FractionFullCountCertificate``, a ``Fraction`` reduced row
echelon form of M^T whose non-pivot columns hold the coefficients X of each
row of M over the anchor rows, with the anchor determinant from
``bareiss_det``.  The cells of (W, boundary), which ``cobordism.cell_structure``
counts by index from intervals of ranks, have two oracles that list one
``CellGenerator`` record per generator, which the library no longer builds.
``graph_walk_cell_structure`` is the graph walk it ran first: it orients W's
derived edge graph by ``separating_functional``, counts each vertex's index
with ``vertex_indices`` and follows each vertex's root edge, the one edge
whose ends share no cut facet.  ``cobordism.boundary_h_vectors`` writes each
boundary component's h-vector from its cut face; ``h_vector`` is the graph
walk ``cpbound boundary`` ran before, the count of vertices of each index
under ``vertex_indices``.
``closed_form_cell_structure`` is the per-vertex closed form it ran next,
which reads each index off the vertex's (i, m, cut) label; ``generator_counts``
counts either list by index.  ``closed_form_index_counts`` writes the counts
with no functional at all, from the sizes of the three cut faces.
``randrange_draws`` is ``polytope.functional_draws`` as it drew before it
called ``getrandbits`` itself, one ``random.randrange`` per coefficient.
The library's one elimination, ``zlinalg.fraction_free_reduce``, runs on
sparse rows, dicts from column to nonzero entry, and its matrix-vector
product, ``zlinalg.column_product``, over a vector's nonzero entries and the
matrix's nonzero columns.  Their dense forms, which they replaced, are the
oracles here: ``dense_fraction_free_reduce`` (the same pivot rule and
updates on every entry of every row), ``dense_inverse_unimodular`` (it
reduces the dense [m | I], columns in their natural order, and checks
m B = I by entrywise sums) and ``dense_apply_matrix``, and
``dense_normalize_simplex_pair``, the normal form of any closed simplex pair
from those two, kept whole in its own ``DenseNormalForm`` (the basis change
D B, each facet's sign and image), of which the library keeps only the
residual's image and the determinant; ``matmul``, the dense matrix product
that only tests use, moved here too.
The library reads W and its boundary through W's vertex labels (i, m, cut);
the mask path it read them through before is the last oracle section:
``mask_validate`` with its mask-keyed memo ``Verdicts`` and ``renumbering``,
``mask_components`` (faces built by ``face_as_polytope``),
``mask_identify_simplex_or_product``, ``mask_verify_translation`` (XOR over
masks) and ``mask_glue_report``, which assembles them into a report and
normalizes P3 by ``dense_normalize_simplex_pair``.  ``validate`` reads only
the truncated simplex, so ``mask_validate`` and ``per_vertex_validate`` are
also the reference validation of any other pair: a simplex, a product of
simplices, a face of W, or a W with no labels.
``FaceRef`` and ``face_from_facets``, which only ``cut_face`` and tests
read, live here too.
The boundary checks read W's three blocks F x R, the vertices on each cut;
the label walks they replaced are the oracles of the label section:
``label_components`` splits W's labels by cut into ``LabelCutPair`` views,
``label_identify_simplex_or_product`` recognizes K_(a,b) on their missed
pairs and ``label_verify_translation`` compares the missed pairs
(``label_missed_pairs``) under phi.  ``vertex_value_draw`` is the draw
``cell_structure`` took before it asked only for distinct root entries.
On a built W the library does O(n) work; the paths it replaced are the
section after: ``dense_canon`` and ``dense_eta_standard`` (dense vectors),
``label_validate`` (``validate``'s one pass over the labels, before it read
the blocks) and ``scanning_fraction_free_reduce`` (the elimination that
tests every row for each pivot column, before its column index).
No oracle calls ``zlinalg.fraction_free_reduce``, directly or through
``determinant`` or ``inverse_unimodular``, save ``FullCountCertificate``,
which the mask path (through which ``dense_normalize_simplex_pair``
validates a ``CharPair``) and ``label_validate`` run, as the library did
before it read Gale vectors.  One section holds helpers
over package types that only tests need; they are not oracles, and
``inverse_witness`` does use the library's inverse.  ``attach``, which builds
a pair from plain integer vectors, canonicalizing each, is one of them, and
``from_rows``, which builds an ``IntMatrix`` from dense rows, another.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_

from cpbound.charfn import (
    CharPair,
    CharVector,
    TranslationReport,
    TranslationWitness,
    SimplexNormalForm,
    ValidationReport,
    VertexCheck,
    _failure_reason,
    delta_matrix,
    orientation_signs,
    restrict_to_facet,
    rho_facet_bijection,
)
from cpbound.cobordism import (
    BOUNDARY_FACETS,
    CheckResult,
    EulerCheck,
    GluingReport,
    HomologyTable,
    WManifold,
    betti_from_h_vector,
    cell_stage,
)
from cpbound.polytope import (
    FUNCTIONAL_COEFF_BOUND,
    FUNCTIONAL_RETRY_BUDGET,
    FacetLabel,
    LinearFunctional,
    Point,
    SimplePolytope,
    Vertex,
    _derive_edges,
    combinatorially_isomorphic,
    cut_facet,
    functional_draws,
    generate_functional,
    original_facet,
    polytope_to_json,
    product,
    separating_functional,
    vertex_indices,
)
from cpbound import zlinalg
from cpbound.record import Record
from cpbound.zlinalg import (
    IntMatrix,
    apply_matrix,
    dense,
    inverse_unimodular,
    is_direct_summand,
    smith_normal_form,
)


def cofactor_det(rows: list[list[int]]) -> int:
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by forward Bareiss elimination with full pivoting.

    The pivot is the smallest-magnitude nonzero entry of the working
    submatrix, ties broken in row-major order; a row or column swap flips
    the sign.  Unlike ``zlinalg.fraction_free_reduce`` it eliminates below
    the pivot only and moves columns as well as rows.
    """
    n = len(rows)
    assert all(len(r) == n for r in rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        candidates = [(abs(a[i][j]), i, j) for i in range(k, n) for j in range(k, n) if a[i][j]]
        if not candidates:
            return 0
        _, pi, pj = min(candidates)
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            sign = -sign
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def dense_fraction_free_reduce(a: list[list[int]]) -> tuple[list[int], int, int]:
    """``zlinalg.fraction_free_reduce`` on dense rows, in place: the same pivots, d and sign.

    Column by column, the first row at or below row t with a nonzero entry
    is swapped into row t, and every other row i becomes
    (row_i * piv - row_i[j] * row_t) // prev, entry by entry; a row already
    zero in the pivot column is skipped while piv == prev.
    """
    pivots: list[int] = []
    prev = sign = 1
    for j in range(len(a[0])):
        t = len(pivots)
        if t == len(a):
            break
        p = next((i for i in range(t, len(a)) if a[i][j]), None)
        if p is None:
            continue
        if p != t:
            a[t], a[p] = a[p], a[t]
            sign = -sign
        row_t = a[t]
        piv = row_t[j]
        for i in range(len(a)):
            f = a[i][j]
            if i == t or (not f and piv == prev):
                continue
            a[i] = [(x * piv - f * y) // prev for x, y in zip(a[i], row_t)]
        prev = piv
        pivots.append(j)
    return pivots, prev, sign


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a b, each entry a sum over a row of a and a column of b."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bcols = list(zip(*(b.row(t) for t in range(b.rows))))
    entries = tuple(sum(x * y for x, y in zip(a.row(i), col)) for i in range(a.rows) for col in bcols)
    return IntMatrix(a.rows, b.cols, entries)


def dense_apply_matrix(m: IntMatrix, v) -> tuple[int, ...]:
    """m v by entrywise sums over every entry of m."""
    return tuple(sum(m.row(i)[j] * v[j] for j in range(m.cols)) for i in range(m.rows))


def dense_inverse_unimodular(m: IntMatrix) -> tuple[IntMatrix, int]:
    """``zlinalg.inverse_unimodular`` on dense rows: reduce [m | I], then check m B = I entry by entry."""
    n = m.rows
    a = [list(m.row(i)) + [int(i == j) for j in range(n)] for i in range(n)]
    pivots, d, sign = dense_fraction_free_reduce(a)
    if pivots != list(range(n)) or abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    inverse = IntMatrix(n, n, tuple(d * x for row in a for x in row[n:]))
    for i in range(n):
        for j in range(n):
            assert sum(m.row(i)[t] * inverse.row(t)[j] for t in range(n)) == int(i == j)
    return inverse, sign * d


class DenseNormalForm(Record):
    """The full normal form of a simplex pair, as ``charfn.normalize_simplex_pair`` built it before it kept only
    the residual's image: the basis change D B, each facet's sign and normal form by nonzero entries, the
    residual facet and det D B."""

    __slots__ = ("basis_change", "signs", "normal_form", "residual_facet", "det")

    def vector_of(self, facet_id: str) -> tuple[int, ...]:
        """The facet's vector in normal form, dense."""
        return dense(self.basis_change.cols, dict(self.normal_form)[facet_id])

    def as_simplex_normal_form(self) -> SimplexNormalForm:
        """What the library keeps of it: the residual facet, its image and the determinant."""
        return SimplexNormalForm(self.residual_facet, dict(self.normal_form)[self.residual_facet], self.det)


def dense_normalize_simplex_pair(pair) -> DenseNormalForm:
    """``charfn.normalize_simplex_pair`` with M, the basis facets' vectors as columns in facet order,
    inverted by ``dense_inverse_unimodular`` in that natural column order, and every product dense.

    It takes any closed pair over a simplex: a view with its own ``report``, such as a ``CutPair``, or a
    ``CharPair``, validated by ``mask_validate``, and raises the ``ValueError`` the library raised for an
    open pair, a non-simplex and an invalid pair.
    """
    if isinstance(pair, CharPair) and pair.boundary_facet_ids:
        raise ValueError("pair has boundary facets; normalization needs a closed pair")
    ids = sorted(pair.assignment)
    d = pair.torus_rank
    if len(ids) != d + 1:
        raise ValueError("polytope is not a combinatorial simplex")
    report = mask_validate(pair) if isinstance(pair, CharPair) else pair.report
    if report.checked_vertices != d + 1:
        raise ValueError("polytope is not a combinatorial simplex")
    if not report.ok:
        first = report.failures[0]
        raise ValueError(f"pair is not a valid characteristic pair: vertex {first.vertex} ({first.reason})")
    columns = [pair.assignment[f].entries for f in ids[:-1]]
    B, det_m = dense_inverse_unimodular(IntMatrix(d, d, tuple(x for row in zip(*columns) for x in row)))
    u = dense_apply_matrix(B, pair.assignment[ids[-1]].entries)
    assert all(abs(x) == 1 for x in u)
    A = IntMatrix(d, d, tuple(u[i] * x for i in range(d) for x in B.row(i)))
    normal, signs = [], []
    for fid in ids:
        w = dense_apply_matrix(A, pair.assignment[fid].entries)
        sign = 1 if next(x for x in w if x) > 0 else -1
        normal.append((fid, tuple((j, sign * x) for j, x in enumerate(w) if x)))  # stored by its nonzero entries
        signs.append((fid, sign))
    return DenseNormalForm(A, tuple(signs), tuple(normal), ids[-1], math.prod(u) * det_m)


def sparse_rows(rows) -> list[dict[int, int]]:
    """Dense rows as the sparse rows ``zlinalg.fraction_free_reduce`` takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def nonzero_pairs(rows) -> list[tuple[tuple[int, int], ...]]:
    """Dense rows as the (place, value) pairs of their nonzero entries, which ``FullCountCertificate`` takes."""
    return [tuple((j, x) for j, x in enumerate(row) if x) for row in rows]


def identity(k: int) -> IntMatrix:
    return IntMatrix(k, k, tuple(1 if i == j else 0 for i in range(k) for j in range(k)))


def matrix_rows(m: IntMatrix) -> list[list[int]]:
    return [list(m.row(i)) for i in range(m.rows)]


def fraction_rank(rows: list[list[int]]) -> int:
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def minor_gcd_invariant_factors(rows: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors via d_k = gcd of all k x k minors, f_k = d_k / d_{k-1}."""
    nr, nc = len(rows), len(rows[0])
    factors = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ris in itertools.combinations(range(nr), k):
            for cis in itertools.combinations(range(nc), k):
                sub = [[rows[i][j] for j in cis] for i in ris]
                g = math.gcd(g, abs(cofactor_det(sub)))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def product_h_vector(h1: tuple[int, ...], h2: tuple[int, ...]) -> tuple[int, ...]:
    """h-vector of a product of simple polytopes: product of h-polynomials."""
    out = [0] * (len(h1) + len(h2) - 1)
    for i, a in enumerate(h1):
        for j, b in enumerate(h2):
            out[i + j] += a * b
    return tuple(out)


def random_unimodular(rng, n: int) -> IntMatrix:
    """A random n x n integer matrix of determinant +-1: row operations on the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return from_rows(rows)


def random_matrix_rows(rng, max_size: int = 5, lo: int = -6, hi: int = 6, square: bool = False):
    r = rng.randint(1, max_size)
    c = r if square else rng.randint(1, max_size)
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


class EdgeProvenance(Record):
    """Where an edge came from: a remnant of an edge of the root polytope, or a truncation."""

    __slots__ = ("kind", "ancestors")

    def __init__(self, kind: str, ancestors: tuple[str, str] | None = None) -> None:
        if kind not in ("original", "cut"):
            raise ValueError(f"unknown edge provenance kind {kind!r}")
        if kind == "original" and ancestors is None:
            raise ValueError("original edge provenance needs its root endpoints")
        super().__init__(kind, ancestors)  # ancestors: root vertex ids, original edges only


CUT_EDGE = EdgeProvenance("cut")


def original_edge(a: str, b: str) -> EdgeProvenance:
    return EdgeProvenance("original", tuple(sorted((a, b))))


@dataclass(frozen=True)
class Edge:
    ends: tuple[str, str]  # sorted vertex ids
    provenance: EdgeProvenance


def _is_connected(count: int, pairs) -> bool:
    adjacency: list[list[int]] = [[] for _ in range(count)]
    for i, j in pairs:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == count


def edges_of(P: SimplePolytope) -> tuple[Edge, ...]:
    """P's edges, derived from its masks and tagged, with their vertex ids, in ``_derive_edges`` order.

    The graph must be connected.  An edge whose ends share a cut facet is a
    cut edge.  Any other is an original one: when the original facets are
    the dim+1 root facets of a truncated simplex, indexed 0..dim, it is the
    remnant of the root edge ``A{a}``--``A{b}`` for a, b the two root facets
    both ends miss (the ends share dim-1 facets, none of them cut); otherwise
    it is its own root edge.
    """
    masks = P.incidence
    pairs = _derive_edges(masks, P.facet_ids)
    if not _is_connected(len(masks), pairs):
        raise ValueError("vertex-edge graph is disconnected")
    cut = sum(1 << j for j, f in enumerate(P.facets) if f.provenance.kind == "cut")
    root = {1 << j: f.provenance.index for j, f in enumerate(P.facets) if f.provenance.kind == "original"}
    simplex_root = sorted(root.values()) == list(range(P.dim + 1))
    ids = [v.id for v in P.vertices]
    edges = []
    for i, j in pairs:
        shared = masks[i] & masks[j]
        if shared & cut:
            tag = CUT_EDGE
        elif simplex_root:
            a, b = (f"A{index}" for bit, index in root.items() if not shared & bit)
            tag = original_edge(a, b)
        else:
            tag = original_edge(ids[i], ids[j])
        edges.append(Edge((ids[i], ids[j]), tag))
    return tuple(edges)


def _edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class SetVertex:
    """A vertex given by its set of facet ids, as vertices were held before masks."""

    id: str
    facet_ids: frozenset[str]
    coord: tuple | None = None


def checked_polytope(dim: int, facets, vertices) -> SimplePolytope:
    """A polytope from vertices given by their facet ids, whose graph is checked at once.

    Each vertex, a ``Vertex`` or a ``SetVertex``, is read by its
    ``facet_ids`` and encoded as a mask over the sorted ids of ``facets``; an
    id that is no facet's takes a bit past them, as in ``polytope_from_json``,
    and the constructor rejects it.  ``edges_of`` then derives the graph, so
    a shared ridge or a disconnected graph raises here.
    """
    ids = tuple(sorted(f.id for f in facets))
    bit = {f: 1 << j for j, f in enumerate(ids)}

    def encode(v) -> Vertex:
        known = set(v.facet_ids) & bit.keys()
        unknown = len(set(v.facet_ids) - known)
        return Vertex(v.id, sum(bit[f] for f in known) | ((1 << unknown) - 1) << len(ids), ids)

    given = {v.id: getattr(v, "coord", None) for v in vertices}
    if None in given.values() and any(given.values()):
        raise ValueError("either all vertices carry coordinates or none")
    coords = None if None in given.values() else lambda P: [given[v.id] for v in P.vertices]
    P = SimplePolytope(dim, facets, [encode(v) for v in vertices], coords)
    edges_of(P)
    return P


def frozenset_derive_edges(vertices) -> list[tuple[str, str]]:
    """Pairs of vertices sharing exactly dim-1 facets, keyed on frozensets of facet ids.

    Also enforces that no (dim-1)-subset of facets is shared by more than two
    vertices, which is what makes the pairing an edge relation.
    """
    byface: dict[frozenset[str], list[str]] = {}
    for v in vertices:
        for fid in v.facet_ids:
            key = v.facet_ids - {fid}
            byface.setdefault(key, []).append(v.id)
    edges = set()
    for key, vids in byface.items():
        if len(vids) > 2:
            raise ValueError(
                f"facet subset {sorted(key)} is shared by {len(vids)} vertices; "
                "a simple polytope allows at most 2"
            )
        if len(vids) == 2:
            edges.add(_edge_key(vids[0], vids[1]))
    return sorted(edges)


def frozenset_edges(dim: int, facets, vertices, edge_tags) -> tuple[Edge, ...]:
    """The edges the ``SimplePolytope`` constructor derives, by its checks on frozensets.

    Raises the constructor's ``ValueError`` text for the incidence checks:
    facet count, unknown facets, repeated facet sets, unused facets, more
    than two vertices on a (dim-1)-subset, untagged edges and connectivity.
    """
    facet_set = {f.id for f in facets}
    vertices = sorted(vertices, key=lambda v: v.id)
    seen_sets: dict[frozenset[str], str] = {}
    for v in vertices:
        if len(v.facet_ids) != dim:
            raise ValueError(f"vertex {v.id} lies on {len(v.facet_ids)} facets, expected {dim}")
        if not v.facet_ids <= facet_set:
            raise ValueError(f"vertex {v.id} references unknown facets")
        if v.facet_ids in seen_sets:
            raise ValueError(f"vertices {seen_sets[v.facet_ids]} and {v.id} have identical facet sets")
        seen_sets[v.facet_ids] = v.id
    used = set().union(*(v.facet_ids for v in vertices))
    for fid in sorted(facet_set - used):
        raise ValueError(f"facet {fid} contains no vertex")
    edges = []
    for a, b in frozenset_derive_edges(vertices):
        tag = edge_tags.get((a, b))
        if tag is None:
            raise ValueError(f"edge {a}--{b} has no provenance tag")
        edges.append(Edge((a, b), tag))
    if not edges and len(vertices) > 1:
        raise ValueError("vertex-edge graph is disconnected (no edges)")
    adjacency: dict[str, set[str]] = {v.id: set() for v in vertices}
    for e in edges:
        adjacency[e.ends[0]].add(e.ends[1])
        adjacency[e.ends[1]].add(e.ends[0])
    seen, frontier = {vertices[0].id}, [vertices[0].id]
    while frontier:
        frontier = [w for u in frontier for w in adjacency[u] if w not in seen]
        seen.update(frontier)
    if len(seen) != len(vertices):
        raise ValueError("vertex-edge graph is disconnected")
    return tuple(edges)


def frozenset_simplex_sets(d: int) -> dict[str, frozenset[str]]:
    """The facet set of each vertex ``A{j}`` of the d-simplex: every ``d{m}`` but ``d{j}``."""
    return {f"A{j}": frozenset(f"d{m}" for m in range(d + 1) if m != j) for j in range(d + 1)}


def frozenset_truncated_simplex_sets(n: int) -> dict[str, frozenset[str]]:
    """The facet set of each vertex of ``truncated_simplex(n)``, built as it was before it wrote masks.

    Vertex ``A{i}|d{m}`` of the cut on face F lies on every root facet but
    ``d{i}`` and ``d{m}``, and on the cut facet.
    """
    half = n // 2
    cuts = {"P1": range(half), "P2": range(half + 1, n + 1), "P3": range(half, half + 1)}
    root = frozenset(f"d{j}" for j in range(n + 1))
    return {
        f"A{i}|d{m}": root - {f"d{i}", f"d{m}"} | {cut}
        for cut, face in cuts.items()
        for i in face
        for m in range(n + 1)
        if m not in face
    }


def frozenset_face_sets(sets: dict[str, frozenset[str]], facet: str) -> dict[str, frozenset[str]]:
    """The facet sets of the face on ``facet``: each vertex on it, less that facet."""
    return {vid: s - {facet} for vid, s in sets.items() if facet in s}


def frozenset_product_sets(left: dict[str, frozenset[str]], right: dict[str, frozenset[str]]):
    """The facet sets of a product's vertices ``u*v``: u's facets as ``L.*``, v's as ``R.*``."""
    return {
        f"{u}*{v}": frozenset(f"L.{f}" for f in a) | frozenset(f"R.{f}" for f in b)
        for u, a in left.items()
        for v, b in right.items()
    }


def frozenset_polytope_to_json(P: SimplePolytope, sets: dict[str, frozenset[str]]) -> dict:
    """``polytope_to_json`` with the vertices ordered by their sorted facet-id sets ``sets[v.id]``."""
    order = sorted(P.vertices, key=lambda v: sorted(sets[v.id]))
    out = {"dim": P.dim, "facets": polytope_to_json(P)["facets"], "vertices": [sorted(sets[v.id]) for v in order]}
    if P.has_coords:
        coord = coords_by_id(P)
        out["coords"] = [[f"{x.numerator}/{x.denominator}" for x in coord[v.id]] for v in order]
    return out


def navigation(P: SimplePolytope) -> dict[str, dict[str, tuple[str, Edge]]]:
    """At each vertex, dropped-facet id -> (far endpoint, edge) for the edges there.

    The edge leaving v through "all facets of v except fid" ends at the far
    endpoint.
    """
    nav: dict[str, dict[str, tuple[str, Edge]]] = {v.id: {} for v in P.vertices}
    facets = facet_sets(P)
    for e in edges_of(P):
        a, b = e.ends
        shared = facets[a] & facets[b]
        (dropped_a,) = facets[a] - shared
        (dropped_b,) = facets[b] - shared
        nav[a][dropped_a] = (b, e)
        nav[b][dropped_b] = (a, e)
    return nav


class FaceRef(Record):
    """A face given by facet ids, with the vertices realizing it."""

    __slots__ = ("facet_ids", "vertex_ids")


def face_from_facets(P: SimplePolytope, facet_ids: Sequence[str]) -> FaceRef:
    """The face cut out by a set of facets (error if the intersection is empty), for ``cut_face``."""
    S = frozenset(facet_ids)
    if not S:
        raise ValueError("need at least one facet id")
    unknown = S - set(P.facet_ids)
    if unknown:
        raise ValueError(f"unknown facet ids {sorted(unknown)}")
    want = sum(1 << j for j, f in enumerate(P.facet_ids) if f in S)
    verts = tuple([v.id for v, mask in zip(P.vertices, P.incidence) if mask & want == want])
    if not verts:
        raise ValueError(f"facets {sorted(S)} have empty intersection")
    return FaceRef(S, verts)


def simplex(n: int) -> SimplePolytope:
    """The n-simplex: vertices are the standard basis of Q^(n+1).

    Facet ``d{j}`` is the one not containing vertex ``A{j}``.
    """
    if n < 1:
        raise ValueError("simplex dimension must be at least 1")
    facets = [FacetLabel(f"d{j}", original_facet(j)) for j in range(n + 1)]
    vertices = []
    for j in range(n + 1):
        fs = frozenset(f"d{m}" for m in range(n + 1) if m != j)
        coord = tuple(Fraction(1 if i == j else 0) for i in range(n + 1))
        vertices.append(SetVertex(f"A{j}", fs, coord))
    return checked_polytope(n, facets, vertices)


def facet_sets(P: SimplePolytope) -> dict[str, frozenset[str]]:
    """Each vertex's facet ids, keyed by vertex id."""
    return {v.id: v.facet_ids for v in P.vertices}


def coords_by_id(P: SimplePolytope) -> dict[str, Point]:
    """P's vertex coordinates, read once through ``P.coords()``, keyed by vertex id."""
    return dict(zip([v.id for v in P.vertices], P.coords()))


def root_coords(P: SimplePolytope) -> dict[str, Point]:
    """The vertex coordinates of a root polytope, keyed by vertex id, for ``cut_face``."""
    return coords_by_id(P)


def closed_form_coords(n: int, r1: Fraction) -> dict[str, Point]:
    """The coordinates of ``truncated_simplex(n, r1)`` by vertex id: ``A{i}|d{m}`` at (1-r1)*e_i + r1*e_m.

    Written from the cut faces F1 = {0..n/2-1}, F2 = {n/2+1..n} and F3 =
    {n/2}, one ``Fraction`` entry at a time.
    """
    half = n // 2
    faces = (range(half), range(half + 1, n + 1), range(half, half + 1))
    return {
        f"A{i}|d{m}": tuple(Fraction(1) - r1 if j == i else r1 if j == m else Fraction(0) for j in range(n + 1))
        for face in faces
        for i in face
        for m in range(n + 1)
        if m not in face
    }


def cut_face(
    P: SimplePolytope,
    face: FaceRef,
    roots: dict[str, Point],
    r1: Fraction | None = None,
    new_facet_id: str | None = None,
) -> SimplePolytope:
    """Truncate a proper face: remove its vertex neighborhood, add one facet.

    The face of codimension l is defined by l facets.  Each face vertex v has
    exactly l edges leaving the face (one per defining facet); cutting places
    a new vertex on each, so the new facet is combinatorially the product of
    the face with an (l-1)-simplex.  Edges inside the new facet are tagged
    "cut"; the remnant of each leaving edge keeps its tag.  Every edge
    ``edges_of`` derives on the result must be one of these.

    ``roots`` maps each vertex of the root polytope to its coordinates.  With
    coordinates present the new vertex on the leaving edge at v towards root
    vertex w sits at (1-r1)*v + r1*w, which keeps all cut hyperplanes of an
    iterated truncation in their nominal positions.  This requires the cut to
    happen at root vertices, hence the "no previously cut vertex" rule.
    """
    S = face.facet_ids
    face_verts = set(face.vertex_ids)
    if not face_verts:
        raise ValueError("face has no vertices")
    if face_verts == {v.id for v in P.vertices}:
        raise ValueError("cannot cut: the face is the whole polytope")
    facets = facet_sets(P)
    common = frozenset.intersection(*(facets[v] for v in face.vertex_ids))
    if common != S:
        raise ValueError(
            f"facets {sorted(S)} do not define the face exactly; "
            f"its vertices share {sorted(common)}"
        )
    if P.has_coords:
        if r1 is None:
            raise ValueError("r1 is required when the polytope carries coordinates")
        if not Fraction(0) < r1 < Fraction(1, 4):
            raise ValueError(f"r1 must lie strictly between 0 and 1/4, got {r1}")
        for vid in face_verts:
            if vid not in roots:
                raise ValueError(
                    f"vertex {vid} was created by an earlier cut; "
                    "cut faces must be disjoint from previous cuts"
                )

    new_id = new_facet_id if new_facet_id is not None else "cut(" + ",".join(sorted(S)) + ")"
    if new_id in P.facet_ids:
        raise ValueError(f"facet id {new_id} already in use")

    nav = navigation(P)
    here = coords_by_id(P) if P.has_coords else {}
    new_vertices: list[Vertex] = []
    tags: dict[tuple[str, str], EdgeProvenance] = {}
    for vid in sorted(face_verts):
        v = SetVertex(vid, facets[vid])
        for fid in sorted(S):
            far_id, edge = nav[vid][fid]
            if far_id in face_verts:
                raise ValueError("face is not cuttable: a leaving edge stays inside it")
            nv_id = f"{vid}|{fid}"
            nv_facets = (v.facet_ids - {fid}) | {new_id}
            nv_coord = None
            if P.has_coords:
                if edge.provenance.kind != "original":
                    raise ValueError(
                        f"edge {edge.ends} was created by an earlier cut; "
                        "cannot place the new vertex exactly"
                    )
                a, b = edge.provenance.ancestors
                if vid not in (a, b):
                    raise ValueError(f"vertex {vid} is not a root endpoint of edge {edge.ends}")
                other = b if vid == a else a
                nv_coord = tuple((1 - r1) * x + r1 * y for x, y in zip(here[vid], roots[other]))
            new_vertices.append(SetVertex(nv_id, nv_facets, nv_coord))
            tags[_edge_key(nv_id, far_id)] = edge.provenance

    kept = [SetVertex(v.id, v.facet_ids, here.get(v.id)) for v in P.vertices if v.id not in face_verts]
    for e in edges_of(P):
        a, b = e.ends
        if a not in face_verts and b not in face_verts:
            tags[e.ends] = e.provenance
    # Two new vertices sharing dim-1 facets span an edge of the new facet; any
    # other untagged adjacency is spurious, and the constructor rejects it.
    for u, w in itertools.combinations(new_vertices, 2):
        if len(u.facet_ids & w.facet_ids) == P.dim - 1:
            tags[_edge_key(u.id, w.id)] = CUT_EDGE

    all_vertices = kept + new_vertices
    labels = list(P.facets) + [FacetLabel(new_id, cut_facet(S))]
    kept_facets = set()
    for v in all_vertices:
        kept_facets |= v.facet_ids
    # A codimension-1 cut consumes the cut facet itself.
    labels = [f for f in labels if f.id in kept_facets]
    Q = checked_polytope(P.dim, labels, all_vertices)
    for e in edges_of(Q):
        if e.ends not in tags:
            raise ValueError(f"edge {e.ends[0]}--{e.ends[1]} has no provenance tag")
    return Q


def three_cut_truncated_simplex(n: int, r1: Fraction = Fraction(1, 5)) -> SimplePolytope:
    """``truncated_simplex`` by three ``cut_face`` calls on the n-simplex.

    Cuts, in order: the face spanned by the first n/2 vertices (new facet
    ``P1``), the face spanned by the last n/2 vertices (``P2``), and the
    middle vertex ``A{n/2}`` (``P3``).
    """
    if n < 4 or n % 2:
        raise ValueError(f"dimension must be even and at least 4, got {n}")
    r1 = Fraction(r1)
    half = n // 2
    P = simplex(n)
    roots = root_coords(P)

    front = face_from_facets(P, [f"d{j}" for j in range(half, n + 1)])
    if set(front.vertex_ids) != {f"A{j}" for j in range(half)}:
        raise AssertionError("unexpected vertex set for the first cut face")
    P = cut_face(P, front, roots, r1, "P1")

    back = face_from_facets(P, [f"d{j}" for j in range(half + 1)])
    if set(back.vertex_ids) != {f"A{j}" for j in range(half + 1, n + 1)}:
        raise AssertionError("the second cut face did not survive the first cut unchanged")
    P = cut_face(P, back, roots, r1, "P2")

    mid = face_from_facets(P, [f"d{j}" for j in range(n + 1) if j != half])
    if set(mid.vertex_ids) != {f"A{half}"}:
        raise AssertionError("the middle vertex did not survive the earlier cuts unchanged")
    P = cut_face(P, mid, roots, r1, "P3")

    if len(P.facets) != n + 4 or len(P.vertices) != n * (n + 4) // 2:
        raise AssertionError("truncation produced unexpected face counts")
    if any(v.id.startswith("A") and "|" not in v.id for v in P.vertices):
        raise AssertionError("an original vertex survived the truncation")
    return P


def label_by_isomorphism_search(P: SimplePolytope) -> str | None:
    """``identify_simplex_or_product`` by facet search against built models."""
    d = P.dim
    if combinatorially_isomorphic(P, simplex(d)) is not None:
        return f"Delta^{d}"
    for a in range(1, d // 2 + 1):
        if combinatorially_isomorphic(P, product(simplex(a), simplex(d - a))) is not None:
            return f"Delta^{a} x Delta^{d - a}"
    return None


def randrange_draws(ambient: int, vertex_count: int, seed: int) -> Iterator[tuple[int, ...]]:
    """``functional_draws`` as it drew before it called ``getrandbits`` itself: one ``randrange`` per coefficient."""
    rng = random.Random(seed)
    bound = max(FUNCTIONAL_COEFF_BOUND, vertex_count**2)
    for _ in range(FUNCTIONAL_RETRY_BUDGET):
        yield tuple([rng.randrange(-bound, bound + 1) for _ in range(ambient)])  # the values randint(-bound, bound) draws
    raise ValueError(
        f"no injective functional after {FUNCTIONAL_RETRY_BUDGET} attempts; "
        "vertex coordinates are degenerate"
    )


def fraction_separating_functional(P: SimplePolytope, seed: int):
    """``separating_functional`` evaluated in ``Fraction`` arithmetic at the vertex coordinates.

    Returns the accepted functional, its unscaled values at the vertices and
    the number of draws it took.
    """
    rng = random.Random(seed)
    coord = coords_by_id(P)
    ambient = len(coord[P.vertices[0].id])
    bound = max(FUNCTIONAL_COEFF_BOUND, len(P.vertices) ** 2)
    for draws in range(1, FUNCTIONAL_RETRY_BUDGET + 1):
        zeta = LinearFunctional(tuple(rng.randint(-bound, bound) for _ in range(ambient)))
        values = {vid: zeta(x) for vid, x in coord.items()}
        if len(set(values.values())) == len(P.vertices):
            return zeta, values, draws
    raise ValueError(
        f"no injective functional after {FUNCTIONAL_RETRY_BUDGET} attempts; "
        "vertex coordinates are degenerate"
    )


def fraction_vertex_indices(P: SimplePolytope, zeta: LinearFunctional) -> dict[str, int]:
    """``vertex_indices`` from ``Fraction`` values: neighbours below each vertex."""
    values = {vid: zeta(x) for vid, x in coords_by_id(P).items()}
    if len(set(values.values())) != len(values):
        raise ValueError("functional is not injective on the vertices")
    nav = navigation(P)
    ind = {vid: sum(values[far] < values[vid] for far, _ in nav[vid].values()) for vid in values}
    if list(ind.values()).count(0) != 1 or list(ind.values()).count(P.dim) != 1:
        raise ValueError("index profile is degenerate: expected a unique source and sink")
    return ind


class CellGenerator(Record):
    """One odd cell: a vertex whose surviving root edge points at it."""

    __slots__ = ("index", "vertex")  # index j: the cell has dimension 2j-1


def generator_counts(generators: tuple[CellGenerator, ...]) -> dict[int, int]:
    """``CellStructure.index_counts`` of a list of generators: how many have each index, by index."""
    counts: dict[int, int] = {}
    for g in generators:
        counts[g.index] = counts.get(g.index, 0) + 1
    return dict(sorted(counts.items()))


def _checked_top_cell(n: int, generators: list[CellGenerator]) -> tuple[CellGenerator, ...]:
    if generator_counts(generators).get(n, 0) != 1:
        raise AssertionError("expected exactly one top-dimensional cell")
    return tuple(generators)


def graph_walk_cell_structure(W: WManifold, seed: int = 0) -> tuple[CellGenerator, ...]:
    """The generators of ``cell_structure`` by walking the edge graph of W's polytope, in vertex order.

    Orients the derived edges by ``separating_functional``'s values, takes
    each vertex's index from ``vertex_indices``, and makes a vertex a
    generator when its one root edge, the edge whose ends share no cut
    facet, points at it.
    """
    poly = W.pair.polytope
    zeta, values = separating_functional(poly, seed)
    ind = vertex_indices(poly, zeta)
    masks = poly.incidence
    cut = sum(1 << j for j, f in enumerate(poly.facets) if f.provenance.kind == "cut")
    root_edges: list[list[int]] = [[] for _ in poly.vertices]
    for i, j in _derive_edges(masks, poly.facet_ids):
        if not masks[i] & masks[j] & cut:
            root_edges[i].append(j)
            root_edges[j].append(i)
    ids = [v.id for v in poly.vertices]
    gens = []
    for vid, others in zip(ids, root_edges):
        if len(others) != 1:
            raise AssertionError(f"vertex {vid} lies on {len(others)} root edges, expected 1")
        if values[vid] > values[ids[others[0]]]:
            gens.append(CellGenerator(ind[vid], vid))
    return _checked_top_cell(W.n, gens)


def closed_form_cell_structure(W: WManifold, seed: int = 0) -> tuple[CellGenerator, ...]:
    """The generators of ``cell_structure`` from each vertex's closed-form index, in vertex order.

    The per-vertex form ``cell_structure`` took before it summed index
    intervals.  For r1 = p/q the functional c takes q times its value,
    (q-p)*c_i + p*c_m, at ``A{i}|d{m}`` (``W.labels``); the index there is
    the number of i' in its cut face F with c_i' < c_i, plus the number of
    m' outside F with c_m' < c_m, plus 1 when c_m < c_i, which is when its
    root edge points at it and it is a generator.  c is ``vertex_value_draw``,
    the draw of ``graph_walk_cell_structure``, so the two list the same
    generators.
    """
    n, labels = W.n, W.labels
    c = vertex_value_draw(W, seed)
    # Per face, how many of c's entries inside and outside it lie below each one.
    below_inside = [0] * (n + 1)
    below_outside = [[0] * (n + 1) for _ in range(3)]
    seen = [0] * 3
    face_of = [0] * (n + 1)
    for i, _, f in labels:
        face_of[i] = f
    for rank, j in enumerate(sorted(range(n + 1), key=c.__getitem__)):
        f = face_of[j]
        below_inside[j] = seen[f]
        for g, below in enumerate(below_outside):
            below[j] = rank - seen[g]
        seen[f] += 1
    gens = []
    extremes = [0, 0]  # vertices of index 0 and of index n
    for v, (i, m, f) in zip(W.pair.polytope.vertices, labels):
        up = c[i] > c[m]
        index = below_inside[i] + below_outside[f][m] + up
        if up:
            gens.append(CellGenerator(index, v.id))
        if index in (0, n):
            extremes[index == n] += 1
    if extremes != [1, 1]:
        raise ValueError("index profile is degenerate: expected a unique source and sink")
    return _checked_top_cell(n, gens)


def closed_form_index_counts(n: int) -> dict[int, int]:
    """``cell_structure``'s counts by index with no functional: sum over the cut faces F of min(|F|, j), less j.

    The generators at a root i of F have the indices b_i+1, ..., p_i, for
    b_i the rank of i within F and p_i its place among all n + 1 roots.
    Within F the b_i run over 0..|F|-1, and over all roots the p_i run over
    0..n, so #{i : b_i < j} - #{i : p_i < j} of them have index j.
    """
    sizes = (n // 2, n // 2, 1)  # F1 = {0..n/2-1}, F2 = {n/2+1..n}, F3 = {n/2}
    counts = {j: sum(min(size, j) for size in sizes) - j for j in range(1, n + 1)}
    return {j: count for j, count in counts.items() if count}


def h_vector(P: SimplePolytope, zeta: LinearFunctional) -> tuple[int, ...]:
    """(h_0, ..., h_dim) where h_i counts the vertices of index i under zeta (``vertex_indices``)."""
    counts = [0] * (P.dim + 1)
    for i in vertex_indices(P, zeta).values():
        counts[i] += 1
    return tuple(counts)


def is_unimodular_basis(vectors, k: int) -> bool:
    """True iff the vectors are exactly k and form a Z-basis of Z^k: one Bareiss determinant."""
    vecs = [[int(x) for x in v] for v in vectors]
    for v in vecs:
        if len(v) != k:
            raise ValueError(f"vector {tuple(v)} has length {len(v)}, expected {k}")
    return len(vecs) == k and abs(bareiss_det(vecs)) == 1


def _fraction_abs_det(rows: list[list[Fraction]]) -> Fraction:
    """|det| of a small square matrix (1 for the empty one), by Gaussian elimination."""
    a = [list(r) for r in rows]
    det = Fraction(1)
    for t in range(len(a)):
        p = next((i for i in range(t, len(a)) if a[i][t]), None)
        if p is None:
            return Fraction(0)
        a[t], a[p] = a[p], a[t]
        det *= abs(a[t][t])
        for i in range(t + 1, len(a)):
            if a[i][t]:
                f = a[i][t] / a[t][t]
                a[i] = [x - f * y for x, y in zip(a[i], a[t])]
    return det


class FractionFullCountCertificate:
    """|det| of every set of r rows of an m x r integer matrix M, in ``Fraction`` arithmetic.

    Reduces M^T to reduced row echelon form.  Its pivot columns are the
    anchor rows A; the column of any other row holds that row's coefficients
    X over the anchor rows, and D = det M_A is one Bareiss determinant.  A
    set S of r rows is a basis when |D * det X[S - A, A - S]| = 1.
    """

    def __init__(self, rows, rank: int) -> None:
        work = [[Fraction(x) for x in column] for column in zip(*rows)]
        pivots: list[int] = []
        for j in range(len(rows)):
            t = len(pivots)
            if t == rank:
                break
            p = next((i for i in range(t, rank) if work[i][j]), None)
            if p is None:
                continue
            work[t], work[p] = work[p], work[t]
            inverse = 1 / work[t][j]
            work[t] = [x * inverse for x in work[t]]
            for i in range(rank):
                if i != t and work[i][j]:
                    f = work[i][j]
                    work[i] = [x - f * y for x, y in zip(work[i], work[t])]
            pivots.append(j)
        # Anchor row -> its place in X's columns; None when rank M < r.
        self.anchor = {j: t for t, j in enumerate(pivots)} if len(pivots) == rank else None
        self.coefficients = [tuple(row[j] for row in work) for j in range(len(rows))]
        self.det = 0
        if self.anchor is not None:
            self.det = bareiss_det([list(rows[j]) for j in self.anchor])

    def is_unimodular(self, chosen) -> bool:
        """Whether these r rows of M form a basis of Z^r."""
        if self.anchor is None:
            return False
        kept = set(chosen)
        outside = [j for j in chosen if j not in self.anchor]
        dropped = [t for j, t in self.anchor.items() if j not in kept]
        minor = [[self.coefficients[j][t] for t in dropped] for j in outside]
        return abs(self.det) * _fraction_abs_det(minor) == 1


class FullCountCertificate:
    """|det| of every set of r rows of an m x r integer matrix M, from one elimination, for any co-rank m - r.

    The certificate ``charfn.validate`` ran before it read W's Gale vectors,
    and the one ``mask_validate`` and ``label_validate`` still run.  Reduces
    M^T (r x m, one column per row of M, built from each row's nonzero
    (place, value) pairs) by ``zlinalg.fraction_free_reduce``, looked up on
    the module, so that the work counts that wrap it count these too.  The pivot
    columns are the anchor rows A, the first independent rows in the order
    given, and end as d * I, where d, the last pivot, is +-det M_A; the
    column of any other row j holds Y_j with d * M_j = Y_j M_A, so
    ``reduced[t].get(j, 0)`` is Y_j's entry at anchor t.  Stacking d * e_t
    for the anchor rows of a set S and Y_j for the others gives a matrix C
    with C M_A = d * M_S, and expanding det C along its d * e_t rows gives,
    with s = |S - A|, |det Y[S - A, A - S]| = |d|^(s - 1) * |det M_S|.  So S
    is a basis exactly when |det Y[S - A, A - S]| = |d|^(s - 1), and for
    s = 0 when |d| = 1; the minor is evaluated directly when it is 1 x 1 or
    2 x 2, and reduced by the same elimination when it is larger.

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
        pivots, d, _ = zlinalg.fraction_free_reduce(work)
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
        pivots, d, _ = zlinalg.fraction_free_reduce(y)
        return len(pivots) == len(y) and abs(d) == power


def per_vertex_validate(pair: CharPair) -> ValidationReport:
    """``validate`` with one determinant per distinct full-count vector set, SNF below it."""
    reasons: dict[tuple[tuple[int, ...], ...], str] = {}
    failures = []
    for v in pair.polytope.vertices:
        mapped = sorted(f for f in v.facet_ids if f in pair.assignment)
        if not mapped:
            continue
        vectors = tuple(pair.assignment[f].entries for f in mapped)
        if vectors not in reasons:
            if len(vectors) == pair.torus_rank:
                ok = is_unimodular_basis(vectors, pair.torus_rank)
            else:
                ok = is_direct_summand(vectors, pair.torus_rank)
            reasons[vectors] = ""
            if not ok:
                factors = smith_normal_form(from_rows(vectors))
                reasons[vectors] = f"vectors do not span a direct summand (invariant factors {factors})"
        if reasons[vectors]:
            failures.append(VertexCheck(v.id, tuple(mapped), vectors, False, reasons[vectors]))
    return ValidationReport(not failures, len(pair.polytope.vertices), tuple(failures))


# --- helpers over package types that only tests use ---------------------------


def from_rows(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """The ``IntMatrix`` whose rows are ``rows``, given densely; ragged or no rows are refused."""
    if not rows:
        raise ValueError("no rows given")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("rows have unequal lengths")
    return IntMatrix(len(rows), width, tuple(int(x) for r in rows for x in r))



def betti_boundary(pair: CharPair, seed: int = 0) -> dict[int, int]:
    """Even-degree Betti numbers of a closed pair: b_{2i} = h_i, odd degrees 0."""
    if pair.boundary_facet_ids:
        raise ValueError("Betti numbers need a closed pair")
    return betti_from_h_vector(h_vector(pair.polytope, generate_functional(pair.polytope, seed)))


def edge_between(P: SimplePolytope, a: str, b: str) -> Edge:
    """The edge of P joining vertices a and b."""
    key = (a, b) if a < b else (b, a)
    for e in edges_of(P):
        if e.ends == key:
            return e
    raise ValueError(f"{a} and {b} are not adjacent")


def attach(P: SimplePolytope, assignment, torus_rank: int) -> CharPair:
    """Build a CharPair, canonicalizing the vectors; unmapped facets are boundary."""
    return CharPair(P, torus_rank, {fid: CharVector.canon(v) for fid, v in assignment.items()})


def inverse_witness(w: TranslationWitness) -> TranslationWitness:
    """Witness for pair2 -> pair1 given w: pair1 -> pair2."""
    return TranslationWitness({v: k for k, v in w.phi.items()}, inverse_unimodular(w.delta)[0])


def compose_witnesses(second: TranslationWitness, first: TranslationWitness) -> TranslationWitness:
    """Witness for pair1 -> pair3 given first: pair1 -> pair2 and second: pair2 -> pair3."""
    return TranslationWitness(
        {f: second.phi[g] for f, g in first.phi.items()},
        matmul(second.delta, first.delta),
    )


def check_geometry(P: SimplePolytope) -> None:
    """Geometric sanity for the built-in families.

    All vertices must be distinct exact points and every facet's vertex set
    must affinely span exactly dim-1 dimensions.
    """
    coord = coords_by_id(P)
    seen: dict[tuple[Fraction, ...], str] = {}
    for vid, x in coord.items():
        if x in seen:
            raise ValueError(f"vertices {seen[x]} and {vid} share coordinates")
        seen[x] = vid
    for fid in P.facet_ids:
        pts = [coord[v] for v in P.facet_vertices(fid)]
        base = pts[0]
        diffs = [[x - y for x, y in zip(p, base)] for p in pts[1:]]
        rank = fraction_rank(diffs) if diffs else 0
        if rank != P.dim - 1:
            raise ValueError(f"facet {fid} spans affine dimension {rank}, expected {P.dim - 1}")


# --- the mask path ----------------------------------------------------------------
#
# How the library read W's boundary before it read W through its labels: one
# mask-keyed verdict memo shared by W and its faces, faces built as polytopes
# by ``restrict_to_facet``, masks renumbered between them, and the translation
# checked by XORing masks.


def renumbering(source: Sequence[str], target: Sequence[str]) -> Callable[[int], int]:
    """The map of facet masks over the ids ``source`` to masks over the ids ``target``.

    Bit j moves to the place of ``source[j]`` in ``target``, and is dropped
    when that id is not there.  Bits that move by one shift move together, so
    between a polytope's sorted ids and a face's, a subset in the same order,
    a mask moves in one shift per run of ids in only one of them: one
    and-shift between W and P1 or P2, whose facets are all W's ``d...`` ids.
    """
    place = {f: t for t, f in enumerate(target)}
    moves: dict[int, int] = {}
    for j, f in enumerate(source):
        if f in place:
            moves[place[f] - j] = moves.get(place[f] - j, 0) | 1 << j
    if len(moves) == 1:
        [(s, bits)] = moves.items()
        return (lambda mask: (mask & bits) << s) if s >= 0 else (lambda mask: (mask & bits) >> -s)
    return lambda mask: sum([(mask & bits) << s if s >= 0 else (mask & bits) >> -s for s, bits in moves.items()])


def _rows(mask: int, row_at: Sequence[int]) -> list[int]:
    """The rows of M at the set bits of ``mask``, in order, one step per set bit."""
    rows = []
    while mask:
        low = mask & -mask
        rows.append(row_at[low.bit_length() - 1])
        mask ^= low
    return rows


class Verdicts:
    """The memo of ``mask_validate``: vertex verdicts of one W and its boundary components, and of no other pair.

    ``reasons`` maps a mapped-facet mask over W's facet ids ``facet_ids`` to
    "" for a direct summand, otherwise to the failure reason.  A mask names
    one vector set only where each facet keeps one vector: within one W.
    """

    __slots__ = ("facet_ids", "reasons")

    def __init__(self, facet_ids: Sequence[str]) -> None:
        self.facet_ids = tuple(facet_ids)
        self.reasons: dict[int, str] = {}


def mask_validate(pair: CharPair, verdicts: Verdicts | None = None) -> ValidationReport:
    """``validate`` as it read every pair, W and its components among them, off the incidence masks.

    A vertex's mapped facets are its incidence mask under the mask of the
    assigned facets.  Its verdict is looked up in ``verdicts`` by that mask
    mapped back to ``verdicts.facet_ids``, W's; only a vertex whose mask is
    not there, or fails, has its vectors built.  A new set is certified at
    full count by the pair's ``FullCountCertificate``, built on the first
    such set, from the rows the vertex misses, and otherwise by the Smith
    normal form, which also gives a failing set's invariant factors.  On W
    n(n+4)/4 masks cover the n(n+4)/2 vertices; a component's masks are all W's.
    """
    P = pair.polytope
    rank = pair.torus_rank
    verdicts = Verdicts(P.facet_ids) if verdicts is None else verdicts
    if not set(pair.assignment) <= set(verdicts.facet_ids):
        raise ValueError("the verdicts are kept over the facets of another manifold")
    reasons = verdicts.reasons
    key_of = None if verdicts.facet_ids == P.facet_ids else renumbering(P.facet_ids, verdicts.facet_ids)
    ids = tuple(pair.assignment)  # sorted, like facet_ids
    entries = [pair.assignment[f].entries for f in ids]
    row_of = {f: row for row, f in enumerate(ids)}
    row_at = [row_of.get(f) for f in P.facet_ids]  # bit place -> row of M
    assigned = sum(1 << j for j, row in enumerate(row_at) if row is not None)
    certificate: FullCountCertificate | None = None
    failures = []
    for v, mask in zip(P.vertices, P.incidence):
        mapped = mask & assigned
        if not mapped:
            continue
        key = mapped if key_of is None else key_of(mapped)
        reason = reasons.get(key)
        if reason == "":
            continue
        full = mapped.bit_count() == rank
        if reason is None and full:
            if certificate is None:
                certificate = FullCountCertificate([pair.assignment[f].nonzero for f in ids], rank)
            if certificate.is_unimodular(_rows(assigned ^ mapped, row_at)):
                reasons[key] = ""
                continue
        rows = _rows(mapped, row_at)
        vectors = tuple([entries[row] for row in rows])
        if reason is None:
            ok = not full and is_direct_summand(vectors, rank)
            reason = reasons[key] = "" if ok else _failure_reason(vectors)
        if reason:
            failures.append(VertexCheck(v.id, tuple([ids[row] for row in rows]), vectors, False, reason))
    return ValidationReport(not failures, len(P.vertices), tuple(failures))


def mask_components(W: WManifold) -> tuple[CharPair, CharPair, CharPair]:
    """The three closed pairs on P1, P2, P3, each a face polytope of W's; checks they share no vertices."""
    poly = W.pair.polytope
    vsets = {f: set(poly.facet_vertices(f)) for f in BOUNDARY_FACETS}
    for i, a in enumerate(BOUNDARY_FACETS):
        for b in BOUNDARY_FACETS[i + 1 :]:
            overlap = vsets[a] & vsets[b]
            if overlap:
                raise ValueError(f"boundary facets {a} and {b} share vertices {sorted(overlap)}")
    return tuple(restrict_to_facet(W.pair, f) for f in BOUNDARY_FACETS)


def mask_identify_simplex_or_product(P: SimplePolytope) -> str | None:
    """``identify_simplex_or_product`` on a polytope, by the bits of its incidence masks.

    A simple d-polytope with d+1 facets is Delta^d exactly when it has d+1
    vertices: their masks are distinct, so each misses a different facet.
    With d+2 facets every vertex misses two, and the polytope is
    Delta^a x Delta^b exactly when these missing pairs, taken as edges on the
    facets, form the complete bipartite graph K_(a+1, b+1): the two colour
    classes are then the facet bijection onto the model.  There the facets
    missed together with facet 0 are one class, B, and the rest the other, A;
    as the pairs are distinct, they are all of A x B exactly when each has
    one facet in B and there are |A|*|B| of them.
    """
    d = P.dim
    count = len(P.facet_ids)
    if count == d + 1:
        return f"Delta^{d}" if len(P.vertices) == d + 1 else None
    if count != d + 2:
        return None
    missing = [(1 << count) - 1 ^ mask for mask in P.incidence]  # two bits each
    other = reduce(or_, [m for m in missing if m & 1], 0) & ~1
    size = other.bit_count()
    smaller = min(size, count - size)
    if smaller < 2 or len(P.vertices) != size * (count - size):
        return None
    if any((m & other).bit_count() != 1 for m in missing):
        return None
    return f"Delta^{smaller - 1} x Delta^{d - smaller + 1}"


def mask_verify_translation(pair1: CharPair, pair2: CharPair, w: TranslationWitness) -> TranslationReport:
    """``verify_translation`` on two pairs with polytopes, by XORing the images of each vertex's missed facets.

    Vector equality is up to global sign: delta v must be the canonical
    target t or -t.  Delta is applied by its nonzero columns, collected once.
    """
    if pair1.torus_rank != pair2.torus_rank:
        raise ValueError("pairs have different torus ranks")
    if w.delta.cols != pair1.torus_rank:
        raise ValueError(f"cannot apply {w.delta.rows}x{w.delta.cols} matrix to a vector of length {pair1.torus_rank}")
    P1, P2 = pair1.polytope, pair2.polytope
    phi = dict(w.phi)
    if sorted(phi) != sorted(P1.facet_ids) or sorted(phi.values()) != sorted(P2.facet_ids):
        raise ValueError("phi is not a bijection between the facet sets")
    place = {f: j for j, f in enumerate(P2.facet_ids)}
    image = [1 << place[phi[f]] for f in P1.facet_ids]
    full = (1 << len(image)) - 1
    images = set()
    for mask in P1.incidence:  # phi is a bijection: the image misses the images of the facets missed
        out, missed = full, full ^ mask
        while missed:
            out ^= image[(missed & -missed).bit_length() - 1]
            missed &= missed - 1
        images.add(out)
    iso = images == set(P2.incidence) and len(P1.vertices) == len(P2.vertices)
    mismatches = []
    for fid in sorted(pair1.assignment):
        target = phi[fid]
        if target not in pair2.assignment:
            mismatches.append((fid, target))
            continue
        image, t = apply_matrix(w.delta, pair1.assignment[fid].entries), pair2.assignment[target].entries
        if image != t and tuple([-x for x in image]) != t:
            mismatches.append((fid, target))
    for fid in pair1.boundary_facet_ids:
        if phi[fid] in pair2.assignment:
            mismatches.append((fid, phi[fid]))
    return TranslationReport(iso and not mismatches, iso, tuple(mismatches))


def mask_glue_report(W: WManifold, seed: int = 0, extra_seeds: int = 0) -> GluingReport:
    """``glue_report`` on the mask path: W validated by ``mask_validate`` into one mask-keyed memo
    shared with ``mask_components``, whose types, validity and translation are read off their
    masks, and the Euler count from the boundary facets' vertex lists.  The cells are
    ``cell_stage``'s.
    """
    verdicts = Verdicts(W.pair.polytope.facet_ids)
    n = W.n
    checks: list[CheckResult] = []
    witness: TranslationWitness | None = None
    cells: dict[int, int] = {}
    homology: HomologyTable | None = None

    report = mask_validate(W.pair, verdicts)
    checks.append(
        CheckResult(
            "w-validity",
            report.ok,
            f"{report.checked_vertices} vertices checked, {len(report.failures)} failures"
            + ("" if report.ok else f" (first at {report.failures[0].vertex})"),
        )
    )

    components: tuple[CharPair, ...] = ()
    if report.ok:
        try:
            components = mask_components(W)
            checks.append(CheckResult("boundary-disjointness", True, "P1, P2, P3 share no vertices"))
        except ValueError as exc:
            checks.append(CheckResult("boundary-disjointness", False, str(exc)))

    if components:
        half = n // 2
        expected = [f"Delta^{half - 1} x Delta^{half}", f"Delta^{half - 1} x Delta^{half}", f"Delta^{n - 1}"]
        found = [mask_identify_simplex_or_product(c.polytope) for c in components]
        ok = found == expected
        checks.append(
            CheckResult(
                "boundary-polytope-types",
                ok,
                "; ".join(f"{f}: {t}" for f, t in zip(BOUNDARY_FACETS, found)),
            )
        )

        sub_reports = [mask_validate(c, verdicts) for c in components]
        ok = all(r.ok for r in sub_reports)
        checks.append(
            CheckResult(
                "component-validity",
                ok,
                ", ".join(
                    f"{f}: {len(r.failures)} failures" for f, r in zip(BOUNDARY_FACETS, sub_reports)
                ),
            )
        )

        witness = TranslationWitness(rho_facet_bijection(n), delta_matrix(n))
        translation = mask_verify_translation(components[0], components[1], witness)
        checks.append(
            CheckResult(
                "translation-p1-p2",
                translation.ok,
                "facet bijection is an isomorphism and the basis reversal carries "
                "every vector across"
                if translation.ok
                else f"mismatches at {translation.vector_mismatches}",
            )
        )

        try:
            normal = dense_normalize_simplex_pair(components[2])
            allones = normal.vector_of(normal.residual_facet) == (1,) * (n - 1)
            checks.append(
                CheckResult(
                    "p3-normal-form",
                    allones,
                    f"residual facet {normal.residual_facet} carries the all-ones vector; "
                    f"basis change determinant {normal.det}",
                )
            )
        except ValueError as exc:
            checks.append(CheckResult("p3-normal-form", False, str(exc)))

    if report.ok:
        try:
            stage = cell_stage(W, seed, extra_seeds)
        except (ValueError, AssertionError) as exc:
            # Both checks rest on this structure, so both report its failure.
            checks.append(CheckResult("cell-structure", False, str(exc)))
            checks.append(CheckResult("euler-cross-check", False, str(exc)))
        else:
            cells = stage.counts
            if stage.extra_error is None:
                homology = stage.homology
                details = (
                    f"one 0-cell plus odd cells {cells}; top count "
                    f"{stage.structure.index_counts()[n]}"
                    + ("" if stage.stable else "; counts varied across seeds")
                )
            else:
                details = str(stage.extra_error)
            checks.append(
                CheckResult("cell-structure", stage.stable and stage.extra_error is None, details)
            )
            poly = W.pair.polytope
            boundary_vertices = sum(len(poly.facet_vertices(f)) for f in BOUNDARY_FACETS)
            euler = EulerCheck(stage.euler.cell_total, boundary_vertices // 2)
            checks.append(
                CheckResult(
                    "euler-cross-check",
                    euler.ok,
                    f"cell total {euler.cell_total} vs half boundary vertex count "
                    f"{euler.half_boundary_vertices}",
                )
            )

    orient = orientation_signs(n)
    passed = all(c.passed for c in checks)
    return GluingReport(
        n=n,
        k=W.k,
        r1=W.r1,
        seed=seed,
        checks=tuple(checks),
        components=components,
        cell_counts=cells,
        homology=homology,
        orientation=orient,
        boundary_label=orient.boundary_label,
        witness=witness,
        passed=passed,
    )


# --- the label path ---------------------------------------------------------------
#
# The boundary checks read W's three blocks F x R; before, they walked W's vertex
# labels (i, m, cut), and the walks are the oracles of the blocks.


class LabelCutPair:
    """A boundary component as a view of the labels (i, m, cut) of the vertices on its cut, in W's vertex order.

    Vertex (i, m) lies on every root facet but d{i} and d{m}: the component's
    facets are the d{j} for the ``roots`` j some vertex lies on, read off
    the labels, and its validation ``report`` is W's on its vertices.
    """

    def __init__(self, labels, assignment, rank: int, report: ValidationReport) -> None:
        always = [j for j in labels[0][:2] if all(j in label[:2] for label in labels)]  # missed by every vertex
        self.labels = labels
        self.roots = tuple(j for j in range(rank + 2) if j not in always)  # of the n + 1 root facets
        self.assignment = {f: assignment[f] for f in sorted(f"d{j}" for j in self.roots)}
        self.facet_ids = tuple(self.assignment)
        self.torus_rank = self.dim = rank
        self.report = report


def label_components(W: WManifold) -> tuple[LabelCutPair, LabelCutPair, LabelCutPair]:
    """W's labels split by their cut, each component's report W's on its vertices."""
    failures = W.report.failures
    cut_of = {v.id: c for v, (*_, c) in zip(W.pair.polytope.vertices, W.labels)} if failures else {}
    components = []
    for c in range(len(BOUNDARY_FACETS)):
        part = [label for label in W.labels if label[2] == c]
        failing = tuple(f for f in failures if cut_of[f.vertex] == c)
        report = ValidationReport(not failing, len(part), failing)
        components.append(LabelCutPair(part, W.pair.assignment, W.pair.torus_rank, report))
    return tuple(components)


def label_identify_simplex_or_product(P: LabelCutPair) -> str | None:
    """``identify_simplex_or_product`` from the facet pairs {d{i}, d{m}} the labels (i, m) miss.

    A simple d-polytope with d+1 facets is Delta^d exactly when it has d+1
    vertices: their facet sets are distinct, so each misses a different
    facet.  With d+2 facets every vertex misses two, and the polytope is
    Delta^a x Delta^b exactly when these missing pairs, as edges on the
    facets, form the complete bipartite graph K_(a+1, b+1).  The facets
    missed together with any one facet are then one class, B; as the pairs
    are distinct, they are all of B x (the rest) exactly when each has one
    facet in B and there are |B| * (count - |B|) of them.
    """
    d, count = P.dim, len(P.roots)
    missing = [(i, m) for i, m, _ in P.labels]
    if count == d + 1:
        return f"Delta^{d}" if len(missing) == d + 1 else None
    if count != d + 2:
        return None
    f = missing[0][0]
    other = {b if a == f else a for a, b in missing if f in (a, b)}
    size = len(other)
    smaller = min(size, count - size)
    if smaller < 2 or len(missing) != size * (count - size):
        return None
    if any((a in other) == (b in other) for a, b in missing):
        return None
    return f"Delta^{smaller - 1} x Delta^{d - smaller + 1}"


def label_missed_pairs(pair: LabelCutPair, name) -> set[tuple[int, int]]:
    """The facets each vertex of ``pair`` misses, renamed by ``name``, as sorted pairs; -1 for a facet outside it."""
    out = set()
    for i, m, _ in pair.labels:
        a, b = name.get(i, -1), name.get(m, -1)
        out.add((a, b) if a < b else (b, a))
    return out


def label_verify_translation(pair1: LabelCutPair, pair2: LabelCutPair, w: TranslationWitness) -> TranslationReport:
    """``verify_translation`` with phi checked on the facet pairs each vertex misses, d{i} and d{m}.

    phi is an isomorphism exactly when it carries the pairs the vertices of
    ``pair1`` miss onto those the vertices of ``pair2`` miss.  Vector
    equality is up to global sign: the dense product's canonical form must
    be the target's vector.
    """
    if pair1.torus_rank != pair2.torus_rank:
        raise ValueError("pairs have different torus ranks")
    if w.delta.cols != pair1.torus_rank:
        raise ValueError(f"cannot apply {w.delta.rows}x{w.delta.cols} matrix to a vector of length {pair1.torus_rank}")
    phi = dict(w.phi)
    if sorted(phi) != sorted(pair1.facet_ids) or sorted(phi.values()) != sorted(pair2.facet_ids):
        raise ValueError("phi is not a bijection between the facet sets")
    root = {f"d{j}": j for j in pair2.roots}
    images = label_missed_pairs(pair1, {j: root[phi[f"d{j}"]] for j in pair1.roots})
    iso = len(pair1.labels) == len(pair2.labels) and images == label_missed_pairs(pair2, {j: j for j in pair2.roots})
    mismatches = []
    for fid in sorted(pair1.assignment):
        target = phi[fid]
        image = CharVector.canon(dense_apply_matrix(w.delta, pair1.assignment[fid].entries))
        if target not in pair2.assignment or image != pair2.assignment[target]:
            mismatches.append((fid, target))
    return TranslationReport(iso and not mismatches, iso, tuple(mismatches))


def vertex_value_draw(W: WManifold, seed: int) -> tuple[int, ...]:
    """The draw ``cell_structure`` took before it asked only for distinct root entries.

    For r1 = p/q the draw c takes q times its value, (q-p)*c_i + p*c_m, at
    ``A{i}|d{m}`` (``W.labels``); the first draw of ``functional_draws`` at
    which these values are distinct over all of W's vertices.  This is the
    draw ``separating_functional`` takes on W's polytope.
    """
    n, labels = W.n, W.labels
    p, q = W.r1.numerator, W.r1.denominator
    for c in functional_draws(n + 1, len(labels), seed):
        if len({(q - p) * c[i] + p * c[m] for i, m, _ in labels}) == len(labels):
            return c


# --- the dense and scanning paths -----------------------------------------------------
#
# On a built W the library does O(n) work: a vector is stored by its nonzero entries,
# ``validate`` reads its classes off the blocks F x R, and the elimination finds a
# column's rows through a column index.  The paths these replaced are the oracles here.


def dense_canon(entries) -> tuple[int, ...]:
    """The entries ``CharVector.canon`` stored before it kept only the nonzero ones: dense, first nonzero positive."""
    t = tuple(int(x) for x in entries)
    first = next((x for x in t if x), None)
    if first is None:
        raise ValueError("characteristic vector must be nonzero")
    return t if first > 0 else tuple(-x for x in t)


def dense_eta_standard(n: int) -> dict[int, tuple[int, ...]]:
    """``charfn.eta_standard`` as it was built before, entry by entry into dense lists of n - 1 entries."""
    half = n // 2
    out = {}
    for j in range(n + 1):
        v = [0] * (n - 1)
        if j < half - 1:
            v[j] = 1
        elif j == half - 1:
            for p in range(half):
                v[p] = 1
        elif j < n:
            v[j - 1] = 1
        else:
            for p in range(half - 1, n - 1):
                v[p] = 1
        out[j] = tuple(v)
    return out


def label_validate(pair: CharPair, labels) -> ValidationReport:
    """``charfn.validate`` over the truncated simplex as it ran before it read the blocks: one pass over the labels.

    Vertex (i, m) misses the rows of d{i} and d{m}; each label gives the
    class pair of its two root rows, and the found classes are judged once
    each by ``FullCountCertificate``, built on the dense
    vectors' nonzero entries in sparsest-first row order.  A failing class
    is walked over the labels again, in order.
    """
    rank = pair.torus_rank
    ids = tuple(pair.assignment)
    entries = [pair.assignment[f].entries for f in ids]
    order = sorted(range(len(ids)), key=lambda row: sum(x != 0 for x in entries[row]))
    place = {ids[row]: t for t, row in enumerate(order)}
    width = len(ids) - rank
    root = [place[f"d{j}"] for j in range(len(ids))]
    rows = [entries[row] for row in order]
    certificate = FullCountCertificate(nonzero_pairs(rows), rank) if width == 2 and labels else None
    classes = certificate.classes if certificate else range(len(ids))

    def class_of(missed):
        return tuple(sorted(classes[row] for row in missed)) if len(missed) == width else missed

    of_root = [classes[row] for row in root]
    found = {(a, b) if a < b else (b, a) for a, b in {(of_root[i], of_root[m]) for i, m, _ in labels}}
    failed = set()
    for key in found:
        if len(key) == len(ids):
            continue
        if len(key) == width:
            ok = certificate.is_unimodular(certificate.first_rows(key))
        else:
            ok = is_direct_summand([rows[row] for row in range(len(ids)) if row not in key], rank)
        if not ok:
            failed.add(key)
    reasons = {}
    failures = []
    for j, (i, m, _) in enumerate(labels if failed else ()):
        missed = (root[i], root[m]) if root[i] < root[m] else (root[m], root[i])
        if class_of(missed) in failed:
            kept = [row for row, f in enumerate(ids) if place[f] not in missed]
            vectors = tuple(entries[row] for row in kept)
            reason = reasons.setdefault(missed, _failure_reason(vectors))
            vertex = pair.polytope.vertices[j].id
            failures.append(VertexCheck(vertex, tuple(ids[row] for row in kept), vectors, False, reason))
    return ValidationReport(not failures, len(labels), tuple(failures))


def scanning_fraction_free_reduce(a: list[dict[int, int]]) -> tuple[list[int], int, int]:
    """``zlinalg.fraction_free_reduce`` as it ran before its column index: it tests every row for each pivot column.

    The first row at or below row t holding the column is found by testing
    each row in turn, and while piv == prev the rows to update by testing
    every row; the updates are the library's.
    """
    pivots: list[int] = []
    prev = sign = 1
    for j in sorted(set().union(*a)):
        t = len(pivots)
        if t == len(a):
            break
        p = next((i for i in range(t, len(a)) if j in a[i]), None)
        if p is None:
            continue
        if p != t:
            a[t], a[p] = a[p], a[t]
            sign = -sign
        row_t = a[t]
        piv = row_t[j]
        for i in range(len(a)) if piv != prev else [i for i, row in enumerate(a) if j in row]:
            if i == t:
                continue
            row = a[i]
            f = row.get(j, 0)
            new = {c: x * piv for c, x in row.items()}
            for c, y in row_t.items():
                new[c] = new.get(c, 0) - f * y
            a[i] = {c: x // prev for c, x in new.items() if x}
        prev = piv
        pivots.append(j)
    return pivots, prev, sign
