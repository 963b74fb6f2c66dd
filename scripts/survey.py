#!/usr/bin/env python3
"""Survey the certification pipeline over a range of k.

Prints one row per k with the polytope sizes, the odd-cell counts, the
orientation signs, and the final boundary label.  Everything is exact and
deterministic for a fixed seed.

Usage:
    python scripts/survey.py --kmax 6
    python scripts/survey.py --kmin 2 --kmax 4 --r1 1/6 --seed 3
"""

import argparse
import sys
import time
from fractions import Fraction

from cpbound.cobordism import build_W, glue_report
from cpbound.polytope import parse_fraction


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kmin", type=int, default=1)
    ap.add_argument("--kmax", type=int, default=5)
    ap.add_argument("--r1", default="1/5")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seeds", type=int, default=3, help="functionals per cell count")
    args = ap.parse_args()

    try:
        r1 = parse_fraction(args.r1)
    except ValueError as exc:
        ap.error(f"argument --r1: {exc}")
    if not Fraction(0) < r1 < Fraction(1, 4):
        ap.error(f"argument --r1: must lie strictly between 0 and 1/4, got {r1}")
    header = f"{'k':>3} {'n':>3} {'facets':>7} {'verts':>6} {'cells':>6} {'sign_rho':>9} {'det_delta':>10} {'boundary':>16} {'result':>7}"
    print(header)
    print("-" * len(header))
    all_ok = True
    start = time.time()
    for k in range(args.kmin, args.kmax + 1):
        W = build_W(k, r1)
        report = glue_report(W, args.seed, extra_seeds=args.seeds - 1)
        all_ok &= report.passed
        poly = W.pair.polytope
        total = sum(report.cell_counts.values())
        print(
            f"{k:>3} {W.n:>3} {len(poly.facets):>7} {len(poly.vertices):>6} {total:>6} "
            f"{report.orientation.sign_rho:>+9d} {report.orientation.det_delta:>+10d} "
            f"{report.boundary_label + '^' + str(W.n - 1):>16} "
            f"{'PASS' if report.passed else 'FAIL':>7}"
        )
        if not report.passed:
            for name in report.failed_checks():
                print(f"      failed: {name}")
    print(f"\n{args.kmax - args.kmin + 1} manifolds certified in {time.time() - start:.2f}s")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
