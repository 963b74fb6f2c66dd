"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines stream; without ``-s`` they appear in the captured-output report.
All quantities here are exact integers or rationals, so every comparison is
equality — there are no tolerances to tune.
"""

import io
import random
from contextlib import contextmanager
from fractions import Fraction

from cpbound.charfn import (
    CharVector,
    TranslationWitness,
    delta_matrix,
    eta_facet_assignment,
    eta_standard,
    orientation_signs,
    restrict_to_facet,
    rho_facet_bijection,
    rho_permutation,
    verify_translation,
)
from cpbound.cli import run as cli_run
from cpbound.cobordism import (
    BOUNDARY_FACETS,
    WManifold,
    boundary_components,
    build_W,
    cell_stage,
    cell_structure,
    glue_report,
)
from cpbound.polytope import combinatorially_isomorphic, product, truncated_simplex
from cpbound.zlinalg import (
    apply_matrix,
    is_direct_summand,
    permutation_sign,
    smith_normal_form,
)

from oracles import (
    attach,
    cofactor_det,
    fraction_rank,
    from_rows,
    identity,
    mask_components,
    mask_verify_translation,
    minor_gcd_invariant_factors,
    random_matrix_rows,
    simplex,
)

EVEN_RANGE = (4, 6, 8, 10, 12)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL - {description}")
        raise
    else:
        print(f"[criterion {num:2d}] PASS - {description}")


def w_pair(n, r1=Fraction(1, 5)):
    P = truncated_simplex(n, r1)
    return attach(P, {f: v.entries for f, v in eta_facet_assignment(n).items()}, n - 1)


def test_criterion_01_eta_reproduction():
    with criterion(1, "standard vector table for n = 4 reproduced exactly"):
        eta = eta_standard(4)
        assert {j: v.entries for j, v in eta.items()} == {
            0: (1, 0, 0),
            1: (1, 1, 0),
            2: (0, 1, 0),
            3: (0, 0, 1),
            4: (0, 1, 1),
        }


def test_criterion_02_validity_all_n():
    with criterion(2, "lattice condition holds at every vertex for even n in [4, 12]"):
        for n in EVEN_RANGE:
            report = WManifold(w_pair(n), n, Fraction(1, 5)).report
            assert report.ok, f"n={n}: failures at {report.failing_vertices()}"
            assert report.checked_vertices == n * (n + 4) // 2


def test_criterion_03_dependence_summand_dichotomy():
    with criterion(3, "full vector families dependent, every single removal a summand"):
        for n in EVEN_RANGE:
            eta = eta_standard(n)
            half = n // 2
            low = [eta[j].entries for j in range(half + 1)]
            high = [eta[j].entries for j in range(half, n + 1)]
            assert not is_direct_summand(low, n - 1)
            assert not is_direct_summand(high, n - 1)
            removals = 0
            for family in (low, high):
                for omit in range(len(family)):
                    subset = [v for j, v in enumerate(family) if j != omit]
                    assert is_direct_summand(subset, n - 1)
                    removals += 1
            assert removals == 2 * (half + 1)


def test_criterion_04_boundary_structure():
    with criterion(4, "boundary facets disjoint; product-of-simplices and simplex types"):
        for n in (4, 6, 8):
            W = build_W(n // 2 - 1)
            poly = W.pair.polytope
            vsets = {f: set(poly.facet_vertices(f)) for f in BOUNDARY_FACETS}
            assert not (vsets["P1"] & vsets["P2"])
            assert not (vsets["P2"] & vsets["P3"])
            assert not (vsets["P1"] & vsets["P3"])
            comps = mask_components(W)
            views = boundary_components(W)
            assert [len(c.polytope.vertices) for c in comps] == [len(v.face) * len(v.rest) for v in views]
            model = product(simplex(n // 2 - 1), simplex(n // 2))
            assert combinatorially_isomorphic(comps[0].polytope, model) is not None
            assert combinatorially_isomorphic(comps[1].polytope, model) is not None
            assert combinatorially_isomorphic(comps[2].polytope, simplex(n - 1)) is not None


def test_criterion_05_odd_cell_homology():
    with criterion(5, "odd cells plus one 0-cell; unique top cell; counts seed/depth stable"):
        for n in (4, 6, 8):
            baseline = None
            for r1 in (Fraction(1, 5), Fraction(1, 6), Fraction(1, 8)):
                W = build_W(n // 2 - 1, r1)
                for seed in range(5):
                    cs = cell_structure(W, seed)
                    assert cs.zero_cells == 1
                    assert all(d % 2 == 1 for d in cs.cell_counts())
                    assert cs.index_counts()[n] == 1
                    if baseline is None:
                        baseline = cs.cell_counts()
                    assert cs.cell_counts() == baseline
            table = cell_stage(build_W(n // 2 - 1), 0).homology
            assert table.rank(2 * n - 1) == 1  # orientability witness


def test_criterion_06_euler_cross_check():
    with criterion(6, "cell total equals half the boundary vertex count and n(n+4)/4"):
        for n in EVEN_RANGE:
            chk = cell_stage(build_W(n // 2 - 1), 0).euler
            assert chk.ok
            assert chk.cell_total == n * (n + 4) // 4
            assert chk.half_boundary_vertices == n * (n + 4) // 4


def test_criterion_07_delta_translation():
    with criterion(7, "basis reversal translates P1 to P2; identity matrix does not"):
        for n in EVEN_RANGE:
            pair = w_pair(n)
            p1 = restrict_to_facet(pair, "P1")
            p2 = restrict_to_facet(pair, "P2")
            witness = TranslationWitness(rho_facet_bijection(n), delta_matrix(n))
            assert mask_verify_translation(p1, p2, witness).ok, f"translation failed for n={n}"
            views = boundary_components(build_W(n // 2 - 1))
            assert verify_translation(views[0], views[1], witness).ok, f"translation failed for n={n}"
            eta = eta_standard(n)
            rho = rho_permutation(n)
            for i in range(n + 1):
                assert CharVector.canon(apply_matrix(delta_matrix(n), eta[i].entries)) == eta[rho(i)]
        pair = w_pair(4)
        p1 = restrict_to_facet(pair, "P1")
        p2 = restrict_to_facet(pair, "P2")
        bad = TranslationWitness(rho_facet_bijection(4), identity(3))
        assert not mask_verify_translation(p1, p2, bad).ok
        views = boundary_components(build_W(1))
        assert not verify_translation(views[0], views[1], bad).ok


def test_criterion_08_orientation_parities():
    with criterion(8, "facet-swap parity and basis-reversal determinant follow n mod 4"):
        for n in EVEN_RANGE:
            assert (permutation_sign(rho_permutation(n)) == 1) == (n % 4 == 0)
            from cpbound.zlinalg import determinant

            assert (determinant(delta_matrix(n)) == -1) == (n % 4 == 0)
            rec = orientation_signs(n)
            assert rec.sign_rho == permutation_sign(rho_permutation(n))
            assert rec.det_delta == determinant(delta_matrix(n))


def test_criterion_09_final_pipeline():
    with criterion(9, "full certification passes for k in [1, 5]; demo verdict for k = 1"):
        for k in range(1, 6):
            report = glue_report(build_W(k), 0)
            assert report.passed, f"k={k} failed at {report.failed_checks()}"
            n = 2 * (k + 1)
            assert report.boundary_label == ("conjugate-CP" if n % 4 == 0 else "CP")
        buf = io.StringIO()
        code = cli_run(["demo", "--n", "4"], out=buf)
        out = buf.getvalue()
        assert code == 0
        assert "conjugate-CP^3" in out
        assert "Overall: PASS" in out


def test_criterion_10_mutation_and_snf_robustness():
    with criterion(10, ">= 20 breaking mutations all flagged; SNF matches oracle on >= 200 matrices"):
        rng = random.Random(31415)
        n = 4
        P = truncated_simplex(n, Fraction(1, 5))
        base = {f: v.entries for f, v in eta_facet_assignment(n).items()}
        detected = 0
        attempts = 0
        while detected < 20 and attempts < 1000:
            attempts += 1
            table = dict(base)
            facet = rng.choice(sorted(base))
            vec = tuple(rng.randint(-2, 2) for _ in range(3))
            if not any(vec) or vec == base[facet]:
                continue
            table[facet] = vec
            pair = attach(P, table, 3)
            breaks = any(
                abs(
                    cofactor_det(
                        [
                            list(pair.assignment[f].entries)
                            for f in sorted(f for f in v.facet_ids if f in pair.assignment)
                        ]
                    )
                )
                != 1
                for v in P.vertices
            )
            if not breaks:
                continue
            W = WManifold(pair, n, Fraction(1, 5))
            assert not W.report.ok
            assert not glue_report(W, 0).passed
            detected += 1
        assert detected >= 20

        checked = 0
        for _ in range(220):
            rows = random_matrix_rows(rng, max_size=5)
            m = from_rows(rows)
            factors = smith_normal_form(m)
            assert factors == minor_gcd_invariant_factors(rows)
            assert len(factors) == fraction_rank(rows)
            checked += 1
        assert checked >= 200
