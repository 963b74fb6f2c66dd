"""Command-line front end.

Subcommands: construct, validate, boundary, homology, glue, demo.  JSON is
the machine contract (sorted keys, two-space indent, trailing newline); the
text format is a fixed-width rendering of the same content.  Exit codes:
0 all checks pass, 1 a mathematical check failed, 2 bad input, I/O or a
request too large for the memory available.  A
loaded certificate whose polytope is not the truncated simplex it claims
fails a check: every command prints one ``validation failed`` line for it,
before any result, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .charfn import eta_standard, rho_permutation
from .cobordism import (
    BOUNDARY_FACETS,
    WManifold,
    betti_from_h_vector,
    boundary_components,
    boundary_h_vectors,
    build_W,
    cell_stage,
    glue_report,
    glue_report_to_json,
    identify_simplex_or_product,
    wmanifold_from_json,
    wmanifold_to_json,
)
from .polytope import RealisationError, format_fraction, parse_fraction
from .zlinalg import apply_matrix

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_BAD_INPUT = 2


def _dump_json(data: dict, stream) -> None:
    stream.write(json.dumps(data, indent=2, sort_keys=True, separators=(",", ": ")))
    stream.write("\n")


def _indexable(n: int, option: str) -> int:
    """n, if W's vertex count n(n+4)/2, its largest size, fits an index; else an error naming ``option``."""
    if n * (n + 4) // 2 > sys.maxsize:
        raise ValueError(f"{option} is too large: W would have more vertices than an index can count")
    return n


def _resolve_n(args) -> int:
    if args.k is not None:
        if args.k < 1:
            raise ValueError("k must be at least 1")
        return _indexable(2 * (args.k + 1), f"--k {args.k}")
    if args.n is None:
        raise ValueError("one of --k or --n is required")
    if args.n < 4 or args.n % 2:
        raise ValueError(f"n must be even and at least 4, got {args.n}")
    return _indexable(args.n, f"--n {args.n}")


def _r1(args) -> Fraction:
    """The cut depth to build with: ``--r1``, or 1/5 when it is not given.

    ``--r1`` has no parser default, so that ``run`` can reject it next to ``--input``.
    """
    return parse_fraction(args.r1 if args.r1 is not None else "1/5")


def _manifold_from_args(args) -> WManifold:
    if getattr(args, "input", None):
        try:
            with open(args.input) as fh:
                data = json.load(fh)
        except RecursionError:
            raise ValueError("malformed certificate: JSON nested too deeply") from None
        try:
            return wmanifold_from_json(data)
        except (TypeError, AttributeError, OverflowError) as exc:  # wrong JSON type, or Infinity
            raise ValueError(f"malformed certificate: {exc}") from None
        except KeyError as exc:  # every key the loaders read is one the format requires
            raise ValueError(f"malformed certificate: missing key {exc}") from None
    n = _resolve_n(args)
    return build_W(n // 2 - 1, _r1(args))


def _invalid(W: WManifold, out) -> bool:
    """Whether W fails vertex validation; if so, write one line naming the first failure.

    A built W has its report from ``build_W``; a loaded one is validated here.
    """
    report = W.report
    if report.ok:
        return False
    out.write(
        f"validation failed: {len(report.failures)} failures, first at vertex {report.failures[0].vertex}\n"
    )
    return True


def _add_size_options(p: argparse.ArgumentParser, with_input: bool = True) -> None:
    p.add_argument("--k", type=int, help="boundary index: builds dimension n = 2(k+1)")
    p.add_argument("--n", type=int, help="even dimension n >= 4 (mutually exclusive with --k)")
    p.add_argument("--r1", help="cut depth, a rational p/q in (0, 1/4); default 1/5")
    if with_input:
        p.add_argument("--input", help="read the manifold datum from a JSON file instead")


@cache  # built on first use, then shared by every call of ``run``
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpbound",
        description="Build and certify manifolds whose boundary is an odd complex projective space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the manifold datum and write it as JSON")
    _add_size_options(p, with_input=False)
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("validate", help="check the lattice condition at every vertex")
    _add_size_options(p)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("boundary", help="list the three boundary components")
    _add_size_options(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("homology", help="cell counts and homology of the pair")
    _add_size_options(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1, help="re-run under this many functionals")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("glue", help="full certification report")
    _add_size_options(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--k-range", dest="k_range", help="run for a range of k, e.g. 1:5 (excludes --k and --n)")
    p.add_argument("--output", help="write the JSON report(s) here")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("demo", help="worked example: tables, translation, and verdict")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--r1", default="1/5")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_construct(args, out) -> int:
    W = build_W(_resolve_n(args) // 2 - 1, _r1(args))
    if args.output:  # only the JSON builds the polytope
        with open(args.output, "w") as fh:
            _dump_json(wmanifold_to_json(W), fh)
        out.write(f"wrote {args.output}\n")
    elif args.format == "json":
        _dump_json(wmanifold_to_json(W), out)
    if args.format == "text":
        out.write(f"n = {W.n}, k = {W.k}, r1 = {format_fraction(W.r1)}\n")
        facets = len(W.pair.assignment) + len(W.pair.boundary_facet_ids)
        out.write(f"facets: {facets}, vertices: {W.n * (W.n + 4) // 2}\n")
        out.write(f"boundary facets: {', '.join(W.pair.boundary_facet_ids)}\n")
    return _EXIT_OK


def _cmd_validate(args, out) -> int:
    W = _manifold_from_args(args)
    report = W.report
    if args.format == "json":
        _dump_json(
            {
                "ok": report.ok,
                "checked_vertices": report.checked_vertices,
                "failures": [
                    {"vertex": f.vertex, "facets": list(f.facets), "reason": f.reason}
                    for f in report.failures
                ],
            },
            out,
        )
    else:
        out.write(
            f"checked {report.checked_vertices} vertices: "
            f"{'all valid' if report.ok else f'{len(report.failures)} failures'}\n"
        )
        for f in report.failures:
            out.write(f"  {f.vertex}  facets {', '.join(f.facets)}: {f.reason}\n")
    return _EXIT_OK if report.ok else _EXIT_CHECK_FAILED


def _cmd_boundary(args, out) -> int:
    W = _manifold_from_args(args)
    if _invalid(W, out):
        return _EXIT_CHECK_FAILED
    components = boundary_components(W)
    rows = []
    for fid, comp, h in zip(BOUNDARY_FACETS, components, boundary_h_vectors(W, args.seed)):
        betti = betti_from_h_vector(h)
        rows.append(
            {
                "facet": fid,
                "polytope": identify_simplex_or_product(comp),
                "vertices": len(comp.face) * len(comp.rest),
                "h_vector": list(h),
                "betti_even": {str(d): b for d, b in sorted(betti.items())},
            }
        )
    if args.format == "json":
        _dump_json({"components": rows}, out)
    else:
        for r in rows:
            out.write(
                f"{r['facet']}: {r['polytope']}, {r['vertices']} vertices, "
                f"h-vector {tuple(r['h_vector'])}, "
                f"Betti (even degrees) {tuple(r['betti_even'].values())}\n"
            )
    return _EXIT_OK


def _cmd_homology(args, out) -> int:
    W = _manifold_from_args(args)
    if _invalid(W, out):
        return _EXIT_CHECK_FAILED
    try:
        stage = cell_stage(W, args.seed, extra_seeds=args.seeds - 1)
        if stage.stable and stage.extra_error is not None:
            raise stage.extra_error  # an extra seed failed before any disagreed
    except (ValueError, AssertionError) as exc:
        out.write(f"cell structure failed: {exc}\n")
        return _EXIT_CHECK_FAILED
    if not stage.stable:
        out.write("cell counts varied across functionals; construction is broken\n")
        return _EXIT_CHECK_FAILED
    counts, table, euler = stage.counts, stage.homology, stage.euler
    if args.format == "json":
        _dump_json(
            {
                "cells": {str(d): c for d, c in sorted(counts.items())},
                "homology": {str(d): r for d, r in table.ranks},
                "paper_H0_discrepancy": table.paper_h0_discrepancy,
                "euler": {
                    "cell_total": euler.cell_total,
                    "half_boundary_vertices": euler.half_boundary_vertices,
                    "ok": euler.ok,
                },
            },
            out,
        )
    else:
        out.write(f"cells: one 0-cell, odd cells {counts}\n")
        out.write("homology ranks (degree: rank, absent degrees are 0):\n")
        for d, r in table.ranks:
            out.write(f"  H_{d} = Z^{r}\n")
        out.write(
            "degree-0 note: the single 0-cell contributes to unreduced homology only; "
            "the relative group in degree 0 is 0\n"
        )
        out.write(
            f"euler cross-check: {euler.cell_total} == {euler.half_boundary_vertices} "
            f"-> {'PASS' if euler.ok else 'FAIL'}\n"
        )
    return _EXIT_OK if euler.ok else _EXIT_CHECK_FAILED


def _render_glue_text(report, out) -> None:
    out.write(f"n = {report.n} (k = {report.k}), r1 = {format_fraction(report.r1)}, seed = {report.seed}\n")
    for c in report.checks:
        out.write(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.details}\n")
    out.write(
        f"orientation: sign(rho) = {report.orientation.sign_rho:+d}, "
        f"det(delta') = {report.orientation.det_delta:+d}\n"
    )
    out.write(f"boundary label: {report.boundary_label}^{report.n - 1}\n")
    out.write(f"overall: {'PASS' if report.passed else 'FAILED'}\n")


def _cmd_glue(args, out) -> int:
    if args.k_range:
        lo, sep, hi = args.k_range.partition(":")
        if not (sep and lo.isdecimal() and hi.isdecimal() and 1 <= int(lo) <= int(hi)):
            raise ValueError(f"bad k range {args.k_range!r}: expected LO:HI with 1 <= LO <= HI")
        _indexable(2 * (int(hi) + 1), f"--k-range {args.k_range}")
        ks = range(int(lo), int(hi) + 1)
    elif getattr(args, "input", None):
        ks = [None]
    else:
        ks = [_resolve_n(args) // 2 - 1]

    reports = []
    for k in ks:
        if k is None:
            W = _manifold_from_args(args)
        else:
            W = build_W(k, _r1(args))
        reports.append(glue_report(W, args.seed, extra_seeds=args.seeds - 1))

    payload = [glue_report_to_json(r) for r in reports]
    doc = payload[0] if len(payload) == 1 else {"reports": payload}
    if args.output:
        with open(args.output, "w") as fh:
            _dump_json(doc, fh)
        out.write(f"wrote {args.output}\n")
    elif args.format == "json":
        _dump_json(doc, out)
    if args.format == "text":
        for r in reports:
            _render_glue_text(r, out)
    return _EXIT_OK if all(r.passed for r in reports) else _EXIT_CHECK_FAILED


def _cmd_demo(args, out) -> int:
    n = args.n
    if n < 4 or n % 2:
        raise ValueError(f"n must be even and at least 4, got {n}")
    _indexable(n, f"--n {n}")
    r1 = parse_fraction(args.r1)
    W = build_W(n // 2 - 1, r1)
    report = glue_report(W, args.seed)
    eta = eta_standard(n)
    out.write(f"Worked example: n = {n} (boundary dimension {2 * n - 2}, k = {W.k})\n")
    out.write("=" * 60 + "\n\n")
    out.write(f"Standard vectors on the {n}-simplex facets (facet d_m carries eta_(n-m)):\n")
    for j in range(n + 1):
        out.write(f"  eta_{j} = {eta[j].entries}   on facet d{n - j}\n")
    out.write(
        f"\nTruncated simplex (r1 = {format_fraction(r1)}): "
        f"{len(W.pair.assignment) + len(W.pair.boundary_facet_ids)} facets, {n * (n + 4) // 2} vertices\n"
    )

    for fid, comp in zip(BOUNDARY_FACETS, report.components):
        out.write(f"\n{fid} ({identify_simplex_or_product(comp)}) carries:\n")
        for facet, vec in sorted(comp.assignment.items()):
            out.write(f"  {facet} /\\ {fid} -> {vec.entries}\n")

    rho = rho_permutation(n)
    out.write("\nBasis reversal delta' acting on the vectors:\n")
    for j in range(n + 1):
        image = apply_matrix(report.witness.delta, eta[j].entries)
        out.write(f"  delta'(eta_{j}) = {image} = eta_{rho(j)}\n")
    out.write("\nFacet bijection P1 -> P2 (matching the vector swap):\n")
    for a, b in sorted(report.witness.phi.items()):
        out.write(f"  {a} /\\ P1  ->  {b} /\\ P2\n")

    out.write("\nCertification:\n")
    for c in report.checks:
        out.write(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}\n")
    orient = report.orientation
    out.write(f"\nsign(rho) = {orient.sign_rho:+d}, det(delta') = {orient.det_delta:+d}\n")
    out.write(
        f"After gluing the two product components, the remaining boundary is "
        f"{report.boundary_label}^{n - 1}.\n"
    )
    out.write(f"Overall: {'PASS' if report.passed else 'FAILED'}\n")
    return _EXIT_OK if report.passed else _EXIT_CHECK_FAILED


_COMMANDS = {
    "construct": _cmd_construct,
    "validate": _cmd_validate,
    "boundary": _cmd_boundary,
    "homology": _cmd_homology,
    "glue": _cmd_glue,
    "demo": _cmd_demo,
}


def run(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_BAD_INPUT if exc.code else _EXIT_OK
    for given, excluded in (("k", ("n",)), ("input", ("k", "n", "k_range", "r1")), ("k_range", ("k", "n"))):
        if getattr(args, given, None) is not None:
            for option in excluded:
                if getattr(args, option, None) is not None:
                    sys.stderr.write(
                        f"error: --{given.replace('_', '-')} and --{option.replace('_', '-')} are mutually exclusive\n"
                    )
                    return _EXIT_BAD_INPUT
    if getattr(args, "seeds", 1) < 1:
        sys.stderr.write(f"error: --seeds must be at least 1, got {args.seeds}\n")
        return _EXIT_BAD_INPUT
    try:
        return _COMMANDS[args.command](args, out)
    except RealisationError as exc:  # a loaded polytope that is not the truncated simplex
        out.write(f"validation failed: {exc}\n")
        return _EXIT_CHECK_FAILED
    except (ValueError, OSError, KeyError) as exc:  # JSONDecodeError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_BAD_INPUT
    except MemoryError:  # no check failed: the request did not fit
        sys.stderr.write(f"error: out of memory running {args.command}; try a smaller --k or --n\n")
        return _EXIT_BAD_INPUT


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
