"""Combinatorial simple polytopes with provenance-tagged facets, and the truncated simplex by its labels.

The one polytope the pipeline needs is the n-simplex with the faces F1 =
{0..n/2-1}, F2 = {n/2+1..n} and F3 = {n/2} cut off, adding the facets ``P1``,
``P2`` and ``P3``.  Its vertices are the pairs (i, m) with i in a cut face F
and m outside it, with id ``A{i}|d{m}``: vertex (i, m) lies on every root
facet ``d0..dn`` except ``d{i}`` and ``d{m}``, and on the cut facet of F, at
(1-r1)*e_i + r1*e_m.  So the vertices on the cut facet of F are the block
F x R, R the root indices outside F (``cut_faces``), and vertex validation,
the boundary components, cells and boundary h-vectors are read off the three
blocks.  ``truncation_labels`` writes each vertex's (i, m, cut) in closed
form, in the order of the vertex ids, only for what lists vertices: a
failing validation, the JSON and the tests.

A ``SimplePolytope`` is the general form, stored by vertex-facet incidence:
each vertex lies on exactly ``dim`` facets (simplicity), and its facet set
is an ``int`` bitmask over the sorted facet ids (``Vertex.mask``,
``SimplePolytope.incidence``), from which ``Vertex.facet_ids`` is derived
when read.  It is what a certificate loads into (``polytope_from_json``),
and ``decode_truncated_simplex`` reads the labels back off its masks,
checking on the way that it is the truncated simplex; ``truncated_simplex``
writes the masks of a built one from its labels, for its JSON and for
tests, as do products and faces (``face_as_polytope``).  A polytope stores
no edges.  Two vertices are adjacent when they share ``dim - 1`` facets;
``vertex_indices`` derives the pairs from the masks (``_derive_edges``,
which also rejects a ridge shared by more than two vertices) each time it is
called, and no request calls it.

Exact rational coordinates (``fractions.Fraction``, never floats) belong to
the polytope, made by its source when read (``SimplePolytope.coords``): a
load's parsed rows, the truncated simplex's closed form from each label
(i, m), a product's factors' rows, or a face's parent's.  A built truncated
simplex holds no coordinate tuple.  Integer functionals are evaluated on
integer rows: each polytope scales its coordinates once by their
common denominator q > 0, which keeps every equality and comparison between
values exact.  Every functional is drawn by ``functional_draws``, so the same
seed gives the same coefficients on every path that evaluates them.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Collection, Iterator, Sequence
from fractions import Fraction
from functools import cached_property, reduce
from itertools import islice, repeat
from math import lcm
from operator import mul, or_

from .record import Record

Point = tuple[Fraction, ...]

_ZERO = Fraction(0)

FUNCTIONAL_COEFF_BOUND = 10**6
FUNCTIONAL_RETRY_BUDGET = 64


class FacetProvenance(Record):
    """Where a facet came from: the root polytope's facet ``index`` (kind "original"),
    or the truncation of the face on the facets ``cut_face`` (kind "cut")."""

    __slots__ = ("kind", "index", "cut_face")

    def __init__(self, kind: str, index: int | None = None, cut_face: tuple[str, ...] | None = None) -> None:
        if kind not in ("original", "cut"):
            raise ValueError(f"unknown facet provenance kind {kind!r}")
        if kind == "original" and index is None:
            raise ValueError("original facet provenance needs an index")
        if kind == "cut" and not cut_face:
            raise ValueError("cut facet provenance needs the defining facet ids")
        super().__init__(kind, index, cut_face)


def original_facet(index: int) -> FacetProvenance:
    return FacetProvenance("original", index=index)


def cut_facet(face_ids: Sequence[str]) -> FacetProvenance:
    return FacetProvenance("cut", cut_face=tuple(sorted(face_ids)))


class FacetLabel(Record):
    __slots__ = ("id", "provenance")


class Vertex(Record):
    """A vertex on the facets ``universe[j]`` for the bits j of ``mask``; a polytope's sorted
    ``facet_ids`` are its vertices' universe."""

    __slots__ = ("id", "mask", "universe")

    def __init__(self, id: str, mask: int, universe: tuple[str, ...]) -> None:
        set_id, set_mask, set_universe = self._setters
        set_id(self, id)
        set_mask(self, mask)
        set_universe(self, universe)

    @property
    def facet_ids(self) -> frozenset[str]:
        """The ids of the facets the vertex lies on, derived from the mask."""
        return frozenset(_facet_list(self.mask, self.universe))


class LinearFunctional(Record):
    """An integer linear functional on the ambient coordinate space."""

    __slots__ = ("coefficients",)

    def __call__(self, point: Point) -> Fraction:
        if len(point) != len(self.coefficients):
            raise ValueError("functional and point have different ambient dimensions")
        return sum((c * x for c, x in zip(self.coefficients, point)), Fraction(0))


def _facet_list(mask: int, universe: Sequence[str]) -> list[str]:
    """The ids of the set bits of a facet bitmask, in the (sorted) order of ``universe``."""
    return [f for j, f in enumerate(universe) if mask >> j & 1]


def _derive_edges(masks: Sequence[int], universe: Sequence[str]) -> list[tuple[int, int]]:
    """Index pairs (i < j, sorted) of vertices whose facet bitmasks share all but one bit.

    Each vertex's mask is keyed once per bit dropped; the second vertex on a
    key closes an edge.  Also enforces that no (dim-1)-subset of facets is
    shared by more than two vertices, which is what makes the pairing an edge
    relation; ``universe`` names the bits for that error.
    """
    partner: dict[int, int] = {}  # key -> the one vertex on it so far, or -1 once paired
    pairs = []
    for j, mask in enumerate(masks):
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            key = mask ^ bit
            i = partner.setdefault(key, j)
            if i == j:
                continue
            if i < 0:
                on_key = sum(1 for m in masks if m & key == key and (m ^ key).bit_count() == 1)
                raise ValueError(
                    f"facet subset {_facet_list(key, universe)} is shared by {on_key} vertices; "
                    "a simple polytope allows at most 2"
                )
            pairs.append((i, j))
            partner[key] = -1
    pairs.sort()
    return pairs


class SimplePolytope:
    """A combinatorial simple polytope (vertex-facet incidence plus facet tags).

    ``incidence`` holds each vertex's mask, aligned with ``vertices``: bit j
    stands for ``facet_ids[j]``, the universe every vertex must share.  A bit
    past the universe stands for a facet id that is not one of the polytope's.
    ``coords``, if given, makes the coordinates, aligned with ``vertices``,
    from the polytope on each read of ``coords()``.  Instances are immutable
    by convention.
    """

    def __init__(
        self,
        dim: int,
        facets: Sequence[FacetLabel],
        vertices: Sequence[Vertex],
        coords: Callable[[SimplePolytope], Sequence[Point]] | None = None,
    ) -> None:
        if dim < 1:
            raise ValueError("polytope dimension must be at least 1")
        self.dim = dim
        self.facets = tuple(sorted(facets, key=lambda f: f.id))
        ids = tuple(f.id for f in self.facets)
        if len(set(ids)) != len(ids):
            raise ValueError("facet ids are not unique")
        self.vertices = tuple(sorted(vertices, key=lambda v: v.id))
        if len({v.id for v in self.vertices}) != len(self.vertices):
            raise ValueError("vertex ids are not unique")
        if not self.vertices:
            raise ValueError("polytope has no vertices")
        self.facet_ids = universe = self.vertices[0].universe
        if universe != ids:
            raise ValueError("the vertices are not over the polytope's facet ids")
        # Keyed by bytes: an int hashes modulo 2^61 - 1, so the masks of bits j and j + 61 would collide.
        width = (len(universe) + 7) // 8
        seen_sets: dict[bytes, str] = {}
        used = 0
        for v in self.vertices:
            if v.mask.bit_count() != dim:
                raise ValueError(f"vertex {v.id} lies on {v.mask.bit_count()} facets, expected {dim}")
            if v.mask >> len(universe):
                raise ValueError(f"vertex {v.id} references unknown facets")
            if v.universe is not universe and v.universe != universe:
                raise ValueError(f"vertex {v.id} is not over the polytope's facet ids")
            key = v.mask.to_bytes(width, "little")
            if key in seen_sets:
                raise ValueError(f"vertices {seen_sets[key]} and {v.id} have identical facet sets")
            seen_sets[key] = v.id
            used |= v.mask
        self.incidence = tuple(v.mask for v in self.vertices)
        self._coords = coords
        self.has_coords = coords is not None
        for fid in _facet_list(~used, self.facet_ids):
            raise ValueError(f"facet {fid} contains no vertex")

    def facet_vertices(self, facet_id: str) -> tuple[str, ...]:
        if facet_id not in self.facet_ids:
            raise ValueError(f"unknown facet {facet_id}")
        bit = 1 << self.facet_ids.index(facet_id)
        return tuple([v.id for v, mask in zip(self.vertices, self.incidence) if mask & bit])

    def coords(self) -> Sequence[Point]:
        """The vertices' coordinates, aligned with ``vertices``, made by the polytope's source on each call."""
        if self._coords is None:
            raise ValueError("polytope has no coordinates")
        return self._coords(self)

    @cached_property
    def integer_coords(self) -> dict[str, tuple[int, ...]]:
        """Each vertex's coordinates times q, the lcm of all their denominators.

        Built once per polytope, on first use.  Since q > 0, a functional's
        values on these rows are q times its values at the vertices, so they
        are equal, and ordered, exactly when those are.
        """
        rows = self.coords()
        q = lcm(*(x.denominator for row in rows for x in row))
        return {
            v.id: tuple(x.numerator * (q // x.denominator) for x in row) for v, row in zip(self.vertices, rows)
        }


def face_as_polytope(P: SimplePolytope, facet_ids: Collection[str]) -> SimplePolytope:
    """The face of a simple polytope on the facets ``facet_ids``, as a simple polytope in its own right.

    Its vertices are the parent's whose masks hold every given facet's bit,
    and its facets, with the parent's labels, the others they lie on;
    coordinates are read from the parent when read.  A vertex's mask is the
    parent's with the other facets' bits deleted, one bit at a time.
    """
    S = frozenset(facet_ids)
    unknown = S - set(P.facet_ids)
    if unknown or not S:
        raise ValueError(f"unknown facet ids {sorted(unknown)}" if unknown else "need at least one facet id")
    if P.dim - len(S) < 1:
        raise ValueError("face is a vertex; it has no polytope structure")
    want = sum(1 << j for j, f in enumerate(P.facet_ids) if f in S)
    kept = [i for i, mask in enumerate(P.incidence) if mask & want == want]  # parent indices of the face's vertices
    if not kept:
        raise ValueError(f"facets {sorted(S)} have empty intersection")
    used = reduce(or_, [P.incidence[i] for i in kept])
    facets = [f for j, f in enumerate(P.facets) if used >> j & 1 and f.id not in S]
    universe = tuple(f.id for f in facets)
    bits = [P.facet_ids.index(f) for f in universe]  # the parent's bit of each kept facet
    vertices = [
        Vertex(P.vertices[i].id, sum(1 << t for t, j in enumerate(bits) if P.incidence[i] >> j & 1), universe)
        for i in kept
    ]

    def coords(_: SimplePolytope) -> list[Point]:
        rows = P.coords()
        return [rows[i] for i in kept]

    return SimplePolytope(P.dim - len(S), facets, vertices, coords if P.has_coords else None)


class RealisationError(ValueError):
    """A polytope is not the truncated simplex its certificate claims to be."""


def cut_faces(n: int) -> dict[str, range]:
    """The faces the truncated n-simplex cuts off, as root vertex indices, by cut facet id."""
    half = n // 2
    return {"P1": range(half), "P2": range(half + 1, n + 1), "P3": range(half, half + 1)}


def cut_places(n: int) -> list[int]:
    """The place in (``P1``, ``P2``, ``P3``) of the cut face holding each root vertex 0..n, as ``cut_faces`` cuts."""
    return [0] * (n // 2) + [2] + [1] * (n // 2)


def truncation_labels(n: int) -> tuple[tuple[int, int, int], ...]:
    """The (i, m, cut) of each vertex ``A{i}|d{m}`` of the truncated n-simplex, in the order of the ids.

    ``cut``, the place in (``P1``, ``P2``, ``P3``) of the face holding i; m is
    outside it.  Ids sort by i's digits then "|", after every digit, then m's.
    """
    cut_of = cut_places(n)
    by_digits = sorted(range(n + 1), key=str)
    outside = [[m for m in by_digits if cut_of[m] != c] for c in range(3)]
    return tuple(
        (i, m, cut_of[i]) for i in sorted(range(n + 1), key=lambda i: f"{i}|") for m in outside[cut_of[i]]
    )


def _truncation_facets(n: int) -> tuple[dict[str, range], list[FacetLabel]]:
    """The cut faces of the truncated n-simplex by cut facet id, and its facet labels."""
    cuts = cut_faces(n)
    facets = [FacetLabel(f"d{j}", original_facet(j)) for j in range(n + 1)]
    for cut, face in cuts.items():
        facets.append(FacetLabel(cut, cut_facet([f"d{m}" for m in range(n + 1) if m not in face])))
    return cuts, facets


def truncated_simplex(n: int, r1: Fraction = Fraction(1, 5)) -> SimplePolytope:
    """The n-simplex with two complementary faces and one vertex cut off, built directly.

    The cut faces are spanned by the root vertices ``A{i}``, i in F, for F1 =
    {0..n/2-1} (new facet ``P1``), F2 = {n/2+1..n} (``P2``) and F3 = {n/2}
    (``P3``).  Cutting F at depth r1 leaves one vertex ``A{i}|d{m}`` for each
    i in F and m outside F: it lies on every root facet except ``d{i}`` and
    ``d{m}``, and on the cut facet, at (1-r1)*e_i + r1*e_m (``_ClosedForm``,
    when read).  Two vertices of one cut sharing i or sharing m span an edge
    inside the cut facet; ``A{i}|d{m}`` and ``A{m}|d{i}`` span the remnant
    of the root edge ``A{i}``--``A{m}``.  The vertices are those of
    ``truncation_labels``, with masks written from their labels.  Requires
    even n >= 4 and a rational 0 < r1 < 1/4; the result has n+4 facets and
    n(n+4)/2 vertices.
    """
    if n < 4 or n % 2:
        raise ValueError(f"dimension must be even and at least 4, got {n}")
    r1 = Fraction(r1)
    if not Fraction(0) < r1 < Fraction(1, 4):
        raise ValueError(f"r1 must lie strictly between 0 and 1/4, got {r1}")
    cuts, facets = _truncation_facets(n)
    ids = tuple(sorted(f.id for f in facets))
    bit = {f: 1 << j for j, f in enumerate(ids)}
    d = [bit[f"d{j}"] for j in range(n + 1)]
    on_cut = [bit[cut] for cut in cuts]
    root = sum(d)
    vertices = [Vertex(f"A{i}|d{m}", root ^ d[i] ^ d[m] | on_cut[c], ids) for i, m, c in truncation_labels(n)]
    return SimplePolytope(n, facets, vertices, _ClosedForm(r1))


class _ClosedForm:
    """The coordinates of ``truncated_simplex(n, r1)``: ``A{i}|d{m}`` at (1-r1)*e_i + r1*e_m.

    Made from ``truncation_labels``, which list the vertices in the order of
    their ids, the order of ``truncated_simplex``'s vertices.
    """

    __slots__ = ("r1", "near")

    def __init__(self, r1: Fraction) -> None:
        self.r1, self.near = r1, 1 - r1

    def point(self, n: int, i: int, m: int) -> Point:
        row = [_ZERO] * (n + 1)
        row[i], row[m] = self.near, self.r1
        return tuple(row)

    def __call__(self, P: SimplePolytope) -> list[Point]:
        return [self.point(P.dim, i, m) for i, m, _ in truncation_labels(P.dim)]


def _describe(p: FacetProvenance) -> str:
    return f"original {p.index}" if p.kind == "original" else f"cut {{{', '.join(p.cut_face)}}}"


def decode_truncated_simplex(P: SimplePolytope, r1: Fraction) -> tuple[tuple[int, int, int], ...]:
    """Each vertex's (i, m, cut), in ``P.vertices`` order, when P is ``truncated_simplex(P.dim, r1)``.

    The triple of ``A{i}|d{m}`` names its cut facet by its place ``cut`` in
    (``P1``, ``P2``, ``P3``).  P must have the truncated simplex's facet ids
    and provenance and n(n+4)/2 vertices; each vertex must lie on one cut
    facet, miss one root facet ``d{i}`` with i in that cut face and one
    ``d{m}`` with m outside it, and sit at exactly (1-r1)*e_i + r1*e_m.
    The constructor keeps vertex masks distinct, so the (i, m) pairs are
    distinct too, and n(n+4)/2 of them are all there are: P is then the
    truncated simplex up to the names and order of its vertices.  The masks
    are read in O(V) and the rows compared in O(V·n).  Otherwise raises
    ``RealisationError`` naming the first facet or vertex that differs.
    """
    n = P.dim
    name = f"the truncated {n}-simplex"
    cuts, facets = _truncation_facets(n)
    model = {f.id: f for f in facets}
    for f in P.facets:
        want = model.get(f.id)
        if want is None:
            raise RealisationError(f"facet {f.id} is not a facet of {name}")
        if f.provenance != want.provenance:
            raise RealisationError(
                f"facet {f.id} has provenance {_describe(f.provenance)}, expected {_describe(want.provenance)}"
            )
    if len(P.facets) != len(model):
        missing = min(set(model) - set(P.facet_ids))
        raise RealisationError(f"facet {missing} of {name} is missing")
    if len(P.vertices) != n * (n + 4) // 2:
        raise RealisationError(f"the polytope has {len(P.vertices)} vertices, {name} has {n * (n + 4) // 2}")
    rows = P.coords() if P.has_coords else None
    if rows is None or len(rows[0]) != n + 1:
        raise RealisationError(f"vertex coordinates must have {n + 1} entries, as those of {name} do")
    cut_ids = list(cuts)
    # By bit position, not by single bits, which as int keys take only 61 hash values:
    # a cut facet's place in (P1, P2, P3), a root facet's index.
    place = [cut_ids.index(f.id) if f.provenance.kind == "cut" else f.provenance.index for f in P.facets]
    cut_bits = sum(1 << j for j, f in enumerate(P.facets) if f.provenance.kind == "cut")
    root_bits = (1 << len(P.facets)) - 1 ^ cut_bits
    face_of = cut_places(n)
    closed = _ClosedForm(r1)
    labels = []
    for v, mask, coord in zip(P.vertices, P.incidence, rows):
        on_cut = mask & cut_bits
        if on_cut.bit_count() != 1:
            raise RealisationError(f"vertex {v.id} lies on {on_cut.bit_count()} cut facets, not one")
        # On one cut facet, a vertex lies on n-1 of the n+1 root facets.
        c = place[on_cut.bit_length() - 1]
        off = root_bits & ~mask
        low = off & -off
        a, b = place[low.bit_length() - 1], place[(off ^ low).bit_length() - 1]
        i, m = (a, b) if face_of[a] == c else (b, a)
        if face_of[i] != c or face_of[m] == c:
            raise RealisationError(
                f"vertex {v.id} lies on {cut_ids[c]} and misses d{a} and d{b}; no vertex of {name} does"
            )
        if coord != (row := closed.point(n, i, m)):
            j = next(j for j, (x, y) in enumerate(zip(coord, row)) if x != y)
            raise RealisationError(
                f"vertex {v.id} is not A{i}|d{m} of {name} at r1 = {format_fraction(r1)}: "
                f"coordinate {j} is {format_fraction(coord[j])}, expected {format_fraction(row[j])}"
            )
        labels.append((i, m, c))
    return tuple(labels)


def product(P: SimplePolytope, Q: SimplePolytope) -> SimplePolytope:
    """Combinatorial product: facets are the disjoint union, vertices pairs.

    Every facet is original, P's and Q's indexed in turn.  The ids ``L.*``
    sort before ``R.*``, each in the order of P's or Q's ids, so a vertex's
    mask is u's with v's shifted past P's facets.
    """
    ids = tuple(f"L.{f}" for f in P.facet_ids) + tuple(f"R.{f}" for f in Q.facet_ids)
    facets = [FacetLabel(f, original_facet(index)) for index, f in enumerate(ids)]
    shift = len(P.facet_ids)
    vertices = [Vertex(f"{u.id}*{v.id}", u.mask | v.mask << shift, ids) for u in P.vertices for v in Q.vertices]

    def coords(R: SimplePolytope) -> list[Point]:
        right = list(zip(Q.vertices, Q.coords()))
        at = {f"{u.id}*{v.id}": a + b for u, a in zip(P.vertices, P.coords()) for v, b in right}
        return [at[w.id] for w in R.vertices]

    both = P.has_coords and Q.has_coords
    return SimplePolytope(P.dim + Q.dim, facets, vertices, coords if both else None)


def combinatorially_isomorphic(P: SimplePolytope, Q: SimplePolytope) -> dict[str, str] | None:
    """A facet bijection inducing a vertex bijection, or None.

    Backtracking over facet images, pruned by facet vertex counts and by
    pairwise vertex-intersection sizes; fine up to a few dozen facets.
    """
    if P.dim != Q.dim or len(P.facets) != len(Q.facets) or len(P.vertices) != len(Q.vertices):
        return None
    pv = {f: frozenset(P.facet_vertices(f)) for f in P.facet_ids}
    qv = {f: frozenset(Q.facet_vertices(f)) for f in Q.facet_ids}
    if sorted(len(s) for s in pv.values()) != sorted(len(s) for s in qv.values()):
        return None
    q_vertex_sets = {v.facet_ids for v in Q.vertices}

    order = sorted(P.facet_ids, key=lambda f: (len(pv[f]), f))
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def extend(pos: int) -> bool:
        if pos == len(order):
            image_sets = {frozenset(assignment[f] for f in v.facet_ids) for v in P.vertices}
            return image_sets == q_vertex_sets
        f = order[pos]
        for g in Q.facet_ids:
            if g in used or len(qv[g]) != len(pv[f]):
                continue
            if any(
                len(pv[f] & pv[f2]) != len(qv[g] & qv[assignment[f2]])
                for f2 in assignment
            ):
                continue
            assignment[f] = g
            used.add(g)
            if extend(pos + 1):
                return True
            del assignment[f]
            used.remove(g)
        return False

    if extend(0):
        return dict(sorted(assignment.items()))
    return None


def _scaled_values(P: SimplePolytope, zeta: LinearFunctional) -> dict[str, int]:
    """q times zeta at each vertex, evaluated on ``P.integer_coords``."""
    rows = P.integer_coords
    c = zeta.coefficients
    if len(c) != len(rows[P.vertices[0].id]):
        raise ValueError("functional and point have different ambient dimensions")
    return {vid: sum(map(mul, c, row)) for vid, row in rows.items()}


def vertex_indices(P: SimplePolytope, zeta: LinearFunctional) -> dict[str, int]:
    """Per-vertex count of incident edges pointing toward the vertex.

    Edges are oriented toward the larger zeta value; zeta must be injective
    on the vertex set.  The edges are derived from the masks on each call.
    """
    values = _scaled_values(P, zeta)
    if len(set(values.values())) != len(values):
        raise ValueError("functional is not injective on the vertices")
    at = [values[v.id] for v in P.vertices]
    counts = [0] * len(at)
    for i, j in _derive_edges(P.incidence, P.facet_ids):
        counts[i if at[i] > at[j] else j] += 1
    if counts.count(P.dim) != 1 or counts.count(0) != 1:
        raise ValueError("index profile is degenerate: expected a unique source and sink")
    return {v.id: c for v, c in zip(P.vertices, counts)}


def functional_draws(ambient: int, vertex_count: int, seed: int) -> Iterator[tuple[int, ...]]:
    """The integer coefficient vectors tried under ``seed``, in order, for a polytope of that size.

    Coefficients lie in [-B, B] for B the larger of ``FUNCTIONAL_COEFF_BOUND``
    and the square of the vertex count: by the birthday bound a draw then
    rarely puts two vertices at one value, however large the polytope.  Up to
    1000 vertices B is ``FUNCTIONAL_COEFF_BOUND``.  A caller takes the first
    draw that serves it; once ``FUNCTIONAL_RETRY_BUDGET`` draws are spent,
    the next one raises ``ValueError``.  The coefficients are those of
    ``randrange(-B, B + 1)``, value for value, drawn as it draws them: r =
    ``getrandbits`` of the bit length of 2B + 1, redrawn until r < 2B + 1.
    """
    getrandbits = random.Random(seed).getrandbits
    bound = max(FUNCTIONAL_COEFF_BOUND, vertex_count**2)
    width = 2 * bound + 1
    coefficients = (r - bound for r in map(getrandbits, repeat(width.bit_length())) if r < width)
    for _ in range(FUNCTIONAL_RETRY_BUDGET):
        yield tuple(islice(coefficients, ambient))
    raise ValueError(
        f"no injective functional after {FUNCTIONAL_RETRY_BUDGET} attempts; "
        "vertex coordinates are degenerate"
    )


def generate_functional(P: SimplePolytope, seed: int) -> LinearFunctional:
    """The functional drawn by ``separating_functional``, without its values."""
    return separating_functional(P, seed)[0]


def separating_functional(P: SimplePolytope, seed: int) -> tuple[LinearFunctional, dict[str, int]]:
    """The first of ``functional_draws`` that separates the vertices of P.

    Returns that functional with its values at the vertices, scaled by the
    common denominator q > 0 of ``P.integer_coords``: each draw is evaluated
    once per vertex on integer rows, and the caller reuses the accepted
    values, which compare exactly as the unscaled ones do.  When no draw
    separates them, ``functional_draws`` raises ``ValueError``.
    """
    ambient = len(P.integer_coords[P.vertices[0].id])
    for coefficients in functional_draws(ambient, len(P.vertices), seed):
        zeta = LinearFunctional(coefficients)
        values = _scaled_values(P, zeta)
        if len(set(values.values())) == len(P.vertices):
            return zeta, values


# --- JSON serialization ------------------------------------------------------
#
# Schema: { "dim": n,
#           "facets": [{"id": str, "provenance": {...}}, ...]   (sorted by id),
#           "vertices": [[facet ids, sorted], ...]              (sorted),
#           "coords": [["p/q", ...], ...] }                     (optional, aligned)


def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(s: str) -> Fraction:
    """An exact rational from its string form; a JSON number is rejected, not coerced."""
    if not isinstance(s, str):
        raise TypeError(f"expected a fraction string 'p/q', got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"{s!r} has a zero denominator") from None


def parse_int(x: object, what: str) -> int:
    """A JSON integer; ``bool``, ``float`` and ``str`` values are rejected, not coerced."""
    if type(x) is not int:
        raise TypeError(f"{what} must be a JSON integer, got {x!r}")
    return x


def _provenance_to_json(p: FacetProvenance) -> dict:
    if p.kind == "original":
        return {"kind": "original", "index": p.index}
    return {"kind": "cut", "face": list(p.cut_face)}


def _json_kind(data: object) -> str:
    return "null" if data is None else type(data).__name__


def check_keys(data: object, allowed: tuple[str, ...] | None, where: str) -> None:
    """Reject a non-object, and a key outside ``allowed`` when given: a certificate carries nothing unread."""
    if not isinstance(data, dict):
        raise ValueError(f"malformed certificate: {where} must be a JSON object, got {_json_kind(data)}")
    for key in data if allowed is not None else ():
        if key not in allowed:
            raise ValueError(f"malformed certificate: unknown key {key!r} in {where}")


def check_list(data: object, where: str) -> list:
    """``data`` when it is a JSON array; otherwise the error names ``where``, as ``check_keys`` does."""
    if not isinstance(data, list):
        raise ValueError(f"malformed certificate: {where} must be a JSON array, got {_json_kind(data)}")
    return data


def _provenance_from_json(d: dict, j: int) -> FacetProvenance:
    check_keys(d, None, f"the provenance of facet entry {j}")
    if d["kind"] == "original":
        check_keys(d, ("kind", "index"), f"the provenance of facet entry {j}")
        return original_facet(parse_int(d["index"], "facet index"))
    if d["kind"] == "cut":
        check_keys(d, ("kind", "face"), f"the provenance of facet entry {j}")
        return cut_facet([str(x) for x in check_list(d["face"], f"the cut face of facet entry {j}")])
    raise ValueError(f"malformed certificate: unknown provenance kind {d['kind']!r} in facet entry {j}")


def polytope_to_json(P: SimplePolytope) -> dict:
    # Vertices by sorted facet-id list: two lists first differ at the lowest bit their
    # masks differ in, and the one holding it comes first, so bits read from bit 0 sort in reverse.
    width = len(P.facet_ids)
    masks = P.incidence
    order = sorted(range(len(masks)), key=lambda j: format(masks[j], f"0{width}b")[::-1], reverse=True)
    out = {
        "dim": P.dim,
        "facets": [{"id": f.id, "provenance": _provenance_to_json(f.provenance)} for f in P.facets],
        "vertices": [_facet_list(masks[j], P.facet_ids) for j in order],
    }
    if P.has_coords:
        rows = P.coords()
        out["coords"] = [[format_fraction(x) for x in rows[j]] for j in order]
    return out


def polytope_from_json(data: dict) -> SimplePolytope:
    """The polytope of ``polytope_to_json``; each vertex's facet-id list is read once, into its mask."""
    check_keys(data, ("dim", "facets", "vertices", "coords"), "polytope")
    dim = parse_int(data["dim"], "dim")
    facets = []
    for j, f in enumerate(check_list(data["facets"], "facets")):
        check_keys(f, ("id", "provenance"), f"facet entry {j}")
        facets.append(FacetLabel(str(f["id"]), _provenance_from_json(f["provenance"], j)))
    ids = tuple(sorted(f.id for f in facets))
    bit = {f: 1 << j for j, f in enumerate(ids)}
    coords = data.get("coords")
    raw_vertices = check_list(data["vertices"], "vertices")
    if coords is not None:
        check_list(coords, "coords")
    if coords is not None and len(coords) != len(raw_vertices):
        raise ValueError("coords and vertices have different lengths")
    width = len(str(len(raw_vertices)))
    parsed: dict[str, Fraction] = {}  # each distinct string once; a zero is the one truncated_simplex shares

    def parse(x: object) -> Fraction:
        if not (isinstance(x, str) and x in parsed):
            parsed[x] = parse_fraction(x) or _ZERO
        return parsed[x]

    # Aligned with the vertices, whose ids keep the input order.
    rows = None if coords is None else [
        tuple(map(parse, check_list(row, f"coordinate row {i}"))) for i, row in enumerate(coords)
    ]
    vertices = []
    for i, fids in enumerate(raw_vertices):
        if isinstance(fids, dict):  # an entry is a list of facet ids
            check_keys(fids, (), f"vertex entry {i}")
        check_list(fids, f"vertex entry {i}")
        try:
            mask = reduce(or_, map(bit.__getitem__, fids), 0)
        except (KeyError, TypeError):  # a non-string id, or one of no facet: that one takes a bit past ids
            names = {str(f) for f in fids}
            mask = sum([bit.get(f, 0) for f in names]) | ((1 << len(names - bit.keys())) - 1) << len(ids)
        vertices.append(Vertex(f"v{i:0{width}d}", mask, ids))
    P = SimplePolytope(dim, facets, vertices, None if rows is None else lambda _: rows)
    if rows and len(set(map(len, rows))) != 1:
        raise ValueError("vertex coordinates live in different ambient spaces")
    return P
