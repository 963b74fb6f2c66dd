"""Assembly and certification of the bounding manifold for CP^(2k+1).

``build_W`` equips the truncated simplex with the standard vector family,
leaving the three cut facets as boundary.  The remaining operations extract
the boundary pieces, count the cells of the pair (W, boundary) coming from
the surviving root edges, cross-check the counts against an Euler-type
identity, certify that the two product-facet components translate into each
other under the basis reversal, and bring the simplex component to standard
projective form.  ``glue_report`` runs the whole pipeline and aggregates one
pass/fail record per check.

Every check reads W through ``W.n``, ``W.r1`` and ``W.pair.assignment``,
with no vertex record, incidence mask or vertex label: the vertices on the
cut facet of a cut face F are exactly F x R, R the root indices outside F
(``decode_truncated_simplex`` proves it for a loaded W), so validation reads
the classes of each block, a boundary component is a ``CutPair``, the view
of F and R, its type is read from |F| and |R|, its translations from the
parts, and the Euler check sums |F| * |R| over the cuts.  A built W's
labels are made only when read: to list a failing vertex, or by a test.

The cells are counted, never listed.  A generic functional c on the root
vertices makes ``A{i}|d{m}`` a generator when c_m < c_i, and on the truncated
simplex that every ``WManifold`` is checked to be, the generators at a root
vertex i of a cut face F have the indices b_i+1, ..., b_i+t_i, one each,
where b_i and t_i count the entries of c below c_i inside and outside F.
``cell_structure`` sums these intervals from one sorted order of c.  The
boundary component on the cut facet of F is Delta^(|F|-1) x Delta^(|R|-1),
R the root vertices outside F, and ``boundary_h_vectors`` writes its h-vector
from |F| and |R| alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .charfn import (
    CharPair,
    CutPair,
    TranslationWitness,
    ValidationReport,
    charpair_from_json,
    charpair_to_json,
    delta_matrix,
    eta_facet_assignment,
    normalize_simplex_pair,
    orientation_signs,
    rho_facet_bijection,
    validate,
    verify_translation,
)
from .polytope import (
    SimplePolytope,
    check_keys,
    cut_faces,
    cut_places,
    decode_truncated_simplex,
    format_fraction,
    functional_draws,
    parse_fraction,
    parse_int,
    truncated_simplex,
    truncation_labels,
)
from .record import Record
from .zlinalg import dense

BOUNDARY_FACETS = ("P1", "P2", "P3")


class WManifold:
    """The bounding-manifold datum: a pair over the truncated simplex, read through its blocks F x R.

    Torus rank is one less than the dimension and exactly the three cut
    facets are boundary.  The polytope must be ``truncated_simplex(n, r1)``,
    as ``build_W``'s is by construction; any other pair's is decoded by
    ``decode_truncated_simplex``, which raises ``RealisationError`` for any
    other polytope, into ``labels``, each vertex's (i, m, cut) in vertex
    order, which a built W makes only when read.  Validity of the vectors is
    *not* assumed here so that deliberately broken inputs can still be
    loaded and reported on.  ``report``, the vertex validation of the pair,
    is computed on first use and then read by every check that needs it.
    """

    def __init__(self, pair: CharPair, n: int, r1: Fraction) -> None:
        r1 = Fraction(r1)
        if not Fraction(0) < r1 < Fraction(1, 4):
            raise ValueError(f"r1 must lie strictly between 0 and 1/4, got {r1}")
        if n < 4 or n % 2:
            raise ValueError(f"n must be even and at least 4, got {n}")
        built = isinstance(pair, _StandardPair) and pair._size == (n, r1)
        if not built and pair.polytope.dim != n:
            raise ValueError(f"pair polytope has dimension {pair.polytope.dim}, expected {n}")
        if pair.torus_rank != n - 1:
            raise ValueError(f"torus rank must be {n - 1}, got {pair.torus_rank}")
        if pair.boundary_facet_ids != BOUNDARY_FACETS:
            raise ValueError(
                f"boundary facets must be {BOUNDARY_FACETS}, got {pair.boundary_facet_ids}"
            )
        if not built:
            self.labels = decode_truncated_simplex(pair.polytope, r1)
        self.pair = pair
        self.n = n
        self.r1 = r1

    @property
    def k(self) -> int:
        return self.n // 2 - 1

    @cached_property
    def labels(self) -> tuple[tuple[int, int, int], ...]:
        return truncation_labels(self.n)

    @cached_property
    def report(self) -> ValidationReport:
        return validate(self.pair, lambda: self.labels)


class _StandardPair(CharPair):
    """The standard vectors over ``truncated_simplex(n, r1)``, a polytope built only when read."""

    def __init__(self, n: int, r1: Fraction) -> None:  # CharPair's checks would read the polytope
        self.torus_rank = n - 1
        self.assignment = dict(sorted(eta_facet_assignment(n).items()))
        self.boundary_facet_ids = BOUNDARY_FACETS
        self._size = (n, r1)

    @cached_property
    def polytope(self) -> SimplePolytope:
        return truncated_simplex(*self._size)


def build_W(k: int, r1: Fraction = Fraction(1, 5)) -> WManifold:
    """Construct and validate the bounding manifold datum for CP^(2k+1).

    Sets n = 2(k+1).  k = 0 is rejected: with n = 2 the two faces to cut
    would be single vertices, not positive-dimensional faces (CP^1 = S^2
    bounds a ball anyway).  ``W.pair.polytope`` and ``W.labels`` are built
    only when read.
    """
    if k < 1:
        raise ValueError(
            "k must be at least 1: the construction needs n = 2(k+1) >= 4 so that "
            "the two cut faces have positive dimension"
        )
    n = 2 * (k + 1)
    W = WManifold(_StandardPair(n, Fraction(r1)), n, Fraction(r1))
    if not W.report.ok:  # would be a bug in the construction, not bad input
        raise AssertionError(f"standard assignment failed validation at {W.report.failing_vertices()}")
    return W


def boundary_components(W: WManifold) -> tuple[CutPair, CutPair, CutPair]:
    """The closed pairs on P1, P2, P3, views of the cut faces F and their complements R, which share no vertex.

    A component's validation is W's report on its vertices, F x R: W's
    failures, if any, split by the cut of their labels.
    """
    failures = W.report.failures
    cut_of = {v.id: c for v, (*_, c) in zip(W.pair.polytope.vertices, W.labels)} if failures else {}
    components = []
    for c, face in enumerate(cut_faces(W.n).values()):
        rest = [m for m in range(W.n + 1) if m not in face]
        failing = tuple(f for f in failures if cut_of[f.vertex] == c)
        report = ValidationReport(not failing, len(face) * len(rest), failing)
        components.append(CutPair(face, rest, W.pair.assignment, W.pair.torus_rank, report))
    return tuple(components)  # type: ignore[return-value]


class CellStructure(Record):
    """One 0-cell and, for each (j, count) in ``counts``, sorted by j, count (2j-1)-cells."""

    __slots__ = ("n", "counts")
    zero_cells = 1

    def index_counts(self) -> dict[int, int]:
        return dict(self.counts)

    def cell_counts(self) -> dict[int, int]:
        """Counts keyed by cell dimension 2j-1."""
        return {2 * j - 1: c for j, c in self.counts}


def _separating_draw(n: int, seed: int) -> tuple[int, ...]:
    """The first draw c of ``functional_draws`` for W's n(n+4)/2 vertices that is injective on the roots 0..n.

    That is enough: no edge of W is then level.  For r1 = p/q, c takes q
    times its value, (q-p)*c_i + p*c_m, at ``A{i}|d{m}``; an edge from there
    changes c_i alone, c_m alone, or, to ``A{m}|d{i}``, by (q-2p)(c_m - c_i),
    with q - 2p > 0 as r1 < 1/4.  When no draw is injective,
    ``functional_draws`` raises ``ValueError``.
    """
    for c in functional_draws(n + 1, n * (n + 4) // 2, seed):
        if len(set(c)) == n + 1:
            return c


def cell_structure(W: WManifold, seed: int = 0) -> CellStructure:
    """Cells of (W, boundary), counted by index: vertices whose unique root edge points inward.

    Each vertex of the truncated simplex (``W.labels``) lies on exactly one
    surviving root edge; orienting edges by a generic functional, the vertex
    contributes one cell of dimension 2*ind(v)-1 exactly when that edge
    points toward it.  For r1 = p/q, the draw c of ``_separating_draw``, with
    no level edge, takes q times its value, (q-p)*c_i + p*c_m, at
    ``A{i}|d{m}``, for i in a cut face F and m outside it.  That vertex's
    neighbours on its cut facet are ``A{i'}|d{m}`` and ``A{i}|d{m'}`` for the
    other i' in F and m' outside F; its root edge goes to ``A{m}|d{i}``.  So
    its index is the number b_i of i' with c_i' < c_i, plus the number of m'
    with c_m' < c_m, plus 1 when c_m < c_i (as q - 2p > 0): then the root
    edge points at it, and it is a generator.  With t_i the number of m
    outside F with c_m < c_i, the t_i generators at i thus have the indices
    b_i+1, ..., b_i+t_i, one each.  One walk of c's sorted order, with a
    count per face, gives every b_i and t_i, as b_i + t_i is i's place in
    that order, and a difference array sums the intervals: O(n log n) after
    the draw.  The vertex of index 0 is (i, lowest m) for
    b_i = t_i = 0; one of index n is a generator with b_i + t_i = n.
    """
    n = W.n
    face_of = cut_places(n)
    c = _separating_draw(n, seed)
    steps = [0] * (n + 2)  # difference array of the intervals b_i+1 .. b_i+t_i
    extremes = [0, 0]  # vertices of index 0 and of index n
    below = [0, 0, 0]  # entries of c so far inside each face
    for p, j in enumerate(sorted(range(n + 1), key=c.__getitem__)):
        b = below[face_of[j]]  # and t = p - b outside j's face
        below[face_of[j]] += 1
        steps[b + 1] += 1
        steps[p + 1] -= 1
        if p in (0, n):
            extremes[p == n] += 1
    if extremes != [1, 1]:
        raise ValueError("index profile is degenerate: expected a unique source and sink")
    structure = CellStructure(n, tuple((j, count) for j, count in enumerate(accumulate(steps)) if count))
    if structure.index_counts().get(n, 0) != 1:
        raise AssertionError("expected exactly one top-dimensional cell")
    return structure


class HomologyTable(Record):
    """Ranks of H_*(W, boundary) as sorted (degree, rank) pairs; absent degrees have rank zero.

    The one 0-cell of the quotient contributes to unreduced homology only,
    so degree 0 is reported as rank 0 and the constant discrepancy flag
    records that the naive cell count would instead give 1 there.
    """

    __slots__ = ("ranks",)
    paper_h0_discrepancy = True

    def rank(self, degree: int) -> int:
        return dict(self.ranks).get(degree, 0)


class EulerCheck(Record):
    __slots__ = ("cell_total", "half_boundary_vertices")

    @property
    def ok(self) -> bool:
        return self.cell_total == self.half_boundary_vertices


class CellStage(Record):
    """The cells of (W, boundary) under one seed, checked under further seeds.

    ``stable`` says whether the counts held under every extra seed computed;
    ``extra_error`` is the first extra seed's failure, after which no further
    seed is drawn.  On the truncated simplex, which every ``WManifold`` is,
    no input makes the counts vary or an extra seed fail; these fields guard
    the closed form of ``cell_structure``.
    """

    __slots__ = ("structure", "counts", "stable", "extra_error", "homology", "euler")


def cell_stage(W: WManifold, seed: int = 0, extra_seeds: int = 0) -> CellStage:
    """Cells under ``seed`` and ``extra_seeds`` further functionals, homology and Euler check.

    Homology has rank |I_j| in degree 2j-1.  The Euler check compares two
    independent counts: the total number of odd cells equals the number of
    surviving root edges, counted here via the inward-edge criterion; every
    closed piece of the boundary has Euler characteristic equal to its
    polytope's vertex count and the boundary of an odd-dimensional compact
    manifold has twice the manifold's characteristic, which forces the cell
    total to be half the summed vertex counts of the three boundary facets,
    |F| * |R| on the cut facet of F.
    A failure of the ``seed`` structure itself is raised.
    """
    structure = cell_structure(W, seed)
    counts = structure.cell_counts()
    stable, extra_error = True, None
    for s in range(1, extra_seeds + 1):
        try:
            if cell_structure(W, seed + s).cell_counts() != counts:
                stable = False
        except (ValueError, AssertionError) as exc:
            extra_error = exc
            break
    homology = HomologyTable(((0, 0),) + tuple(sorted(counts.items())))
    n = W.n
    boundary = sum(len(face) * (n + 1 - len(face)) for face in cut_faces(n).values())
    euler = EulerCheck(sum(structure.index_counts().values()), boundary // 2)
    return CellStage(structure, counts, stable, extra_error, homology, euler)


def boundary_h_vectors(W: WManifold, seed: int = 0) -> tuple[tuple[int, ...], ...]:
    """The h-vectors of the boundary components on P1, P2 and P3, aligned with ``BOUNDARY_FACETS``.

    The component on the cut facet of F has the vertices ``A{i}|d{m}`` of
    ``W.labels`` with i in F and m in R, the root indices outside F; two are
    adjacent when they share i or share m.  Under a functional c injective
    on the roots, its index at ``A{i}|d{m}`` is the rank of c_i within F
    plus the rank of c_m within R, so h_j = #{(a, b) in [0,|F|) x [0,|R|) :
    a + b = j} = min(j+1, |F|, |R|, |F|+|R|-1-j), whatever c is.  The
    components still take the draw of ``cell_structure`` under ``seed``
    (``_separating_draw``), so a seed that no draw serves raises the
    ``ValueError`` of ``functional_draws``.
    """
    _separating_draw(W.n, seed)
    h_vectors = []
    for face in cut_faces(W.n).values():
        a, b = len(face), W.n + 1 - len(face)
        h_vectors.append(tuple(min(j + 1, a, b, a + b - 1 - j) for j in range(a + b - 1)))
    return tuple(h_vectors)


def betti_from_h_vector(h: tuple[int, ...]) -> dict[int, int]:
    """Even-degree Betti numbers of a closed pair from its h-vector: b_{2i} = h_i."""
    return {2 * i: h_i for i, h_i in enumerate(h)}


def identify_simplex_or_product(P: CutPair) -> str:
    """The polytope of a boundary component, from the sizes of its cut face F and its complement R.

    Its vertices (i, m), i in F and m in R, miss the facet pairs {d{i}, d{m}}
    of F x R, the edges of the complete bipartite graph K_(|F|,|R|), so it
    is Delta^(|F|-1) x Delta^(|R|-1).  When one part has a single element,
    its facet is missed by every vertex and is none of the component's, and
    the other part's |F| + |R| - 1 facets bound the simplex Delta^(|F|+|R|-2).
    """
    a, b = sorted((len(P.face), len(P.rest)))
    return f"Delta^{b - 1}" if a == 1 else f"Delta^{a - 1} x Delta^{b - 1}"


class CheckResult(Record):
    __slots__ = ("name", "passed", "details")


class GluingReport(Record):
    __slots__ = ("n", "k", "r1", "seed", "checks", "components", "cell_counts", "homology", "orientation",
                 "boundary_label", "witness", "passed")

    def failed_checks(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)


def glue_report(W: WManifold, seed: int = 0, extra_seeds: int = 0) -> GluingReport:
    """Run the full certification pipeline and aggregate the results.

    ``extra_seeds`` re-runs the cell count under that many further functionals
    and requires identical counts.  Every artifact is computed once: W's
    validation is ``W.report``, each boundary component's is read from it
    (P3's also serves its normal form), and the cell stage (``cell_stage``)
    supplies both the ``cell-structure`` and the ``euler-cross-check`` checks.
    """
    n = W.n
    checks: list[CheckResult] = []
    witness: TranslationWitness | None = None
    cells: dict[int, int] = {}
    homology: HomologyTable | None = None

    def check(name: str, passed: bool, details: str) -> None:
        checks.append(CheckResult(name, passed, details))

    report = W.report
    counts = f"{report.checked_vertices} vertices checked, {len(report.failures)} failures"
    check("w-validity", report.ok, counts + ("" if report.ok else f" (first at {report.failures[0].vertex})"))

    components: tuple[CutPair, ...] = ()
    if report.ok:
        components = boundary_components(W)
        check("boundary-disjointness", True, "P1, P2, P3 share no vertices")
        half = n // 2
        expected = [f"Delta^{half - 1} x Delta^{half}", f"Delta^{half - 1} x Delta^{half}", f"Delta^{n - 1}"]
        found = [identify_simplex_or_product(c) for c in components]
        types = "; ".join(f"{f}: {t}" for f, t in zip(BOUNDARY_FACETS, found))
        check("boundary-polytope-types", found == expected, types)

        sub_reports = [c.report for c in components]
        failing = ", ".join(f"{f}: {len(r.failures)} failures" for f, r in zip(BOUNDARY_FACETS, sub_reports))
        check("component-validity", all(r.ok for r in sub_reports), failing)

        witness = TranslationWitness(rho_facet_bijection(n), delta_matrix(n))
        translation = verify_translation(components[0], components[1], witness)
        check(
            "translation-p1-p2",
            translation.ok,
            "facet bijection is an isomorphism and the basis reversal carries every vector across"
            if translation.ok
            else f"mismatches at {translation.vector_mismatches}",
        )

        try:
            normal = normalize_simplex_pair(components[2])
        except ValueError as exc:
            check("p3-normal-form", False, str(exc))
        else:
            check(
                "p3-normal-form",
                dense(n - 1, normal.residual_image) == (1,) * (n - 1),
                f"residual facet {normal.residual_facet} carries the all-ones vector; "
                f"basis change determinant {normal.det}",
            )

    if report.ok:
        try:
            stage = cell_stage(W, seed, extra_seeds)
        except (ValueError, AssertionError) as exc:
            # Both checks rest on this structure, so both report its failure.
            check("cell-structure", False, str(exc))
            check("euler-cross-check", False, str(exc))
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
            check("cell-structure", stage.stable and stage.extra_error is None, details)
            euler = stage.euler
            check(
                "euler-cross-check",
                euler.ok,
                f"cell total {euler.cell_total} vs half boundary vertex count {euler.half_boundary_vertices}",
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


# --- JSON ---------------------------------------------------------------------


def wmanifold_to_json(W: WManifold) -> dict:
    return {
        "n": W.n,
        "r1": format_fraction(W.r1),
        "pair": charpair_to_json(W.pair),
    }


def wmanifold_from_json(data: dict) -> WManifold:
    """Load a W certificate; its polytope, a truncated simplex, must carry coordinates, and each root facet a vector."""
    check_keys(data, ("n", "r1", "pair"), "the certificate")
    pair = charpair_from_json(data["pair"])
    if not pair.polytope.has_coords:
        raise ValueError("malformed certificate: the polytope carries no vertex coordinates")
    for f in pair.polytope.facets:
        if f.provenance.kind == "original" and f.id not in pair.assignment and f.id not in BOUNDARY_FACETS:
            raise ValueError(f"malformed certificate: root facet {f.id} carries no vector")
    return WManifold(pair, parse_int(data["n"], "n"), parse_fraction(data["r1"]))


def glue_report_to_json(report: GluingReport) -> dict:
    return {
        "n": report.n,
        "k": report.k,
        "checks": [
            {"name": c.name, "pass": c.passed, "details": c.details} for c in report.checks
        ],
        "cells": {str(d): c for d, c in sorted(report.cell_counts.items())},
        "homology": (
            {str(d): r for d, r in report.homology.ranks} if report.homology else {}
        ),
        "orientation": {
            "sign_rho": report.orientation.sign_rho,
            "det_delta": report.orientation.det_delta,
        },
        "boundary_label": report.boundary_label,
        "paper_H0_discrepancy": HomologyTable.paper_h0_discrepancy,
    }
