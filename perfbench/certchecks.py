"""Independent checks of cpbound's certificates, used to count wrong answers.

No golden file is compared: each check follows from the paper's statements
(cell counts, top cell, boundary label, orientation sign) or from the input
the benchmark generated (which vertices a mutated facet must break).  Every
function returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import copy
import random
import re
from collections import Counter

EXPECTED_CHECKS = (
    "w-validity",
    "boundary-disjointness",
    "boundary-polytope-types",
    "component-validity",
    "translation-p1-p2",
    "p3-normal-form",
    "cell-structure",
    "euler-cross-check",
)


def odd_cell_total(n: int) -> int:
    return n * (n + 4) // 4


def boundary_label(n: int) -> str:
    return "CP" if n % 4 == 2 else "conjugate-CP"


class CellCountLedger:
    """Cell counts must be identical under every functional seed for one n."""

    def __init__(self) -> None:
        self._first: dict[int, dict[int, int]] = {}

    def problems(self, n: int, cells: dict[int, int]) -> list[str]:
        first = self._first.setdefault(n, cells)
        return [] if cells == first else [f"n={n}: cell counts {cells} differ from {first} under another seed"]


def _cell_problems(n: int, cells: dict[int, int], homology: dict[int, int]) -> list[str]:
    out = []
    if sum(cells.values()) != odd_cell_total(n):
        out.append(f"n={n}: odd cells sum to {sum(cells.values())}, expected {odd_cell_total(n)}")
    if cells.get(2 * n - 1) != 1:
        out.append(f"n={n}: {cells.get(2 * n - 1, 0)} top cells, expected 1")
    if any(d % 2 == 0 or not 0 < d < 2 * n for d in cells):
        out.append(f"n={n}: cell dimensions {sorted(cells)} are not all odd and below 2n")
    if homology.get(2 * n - 1) != 1:
        out.append(f"n={n}: H_{2 * n - 1} has rank {homology.get(2 * n - 1)}, expected 1")
    return out


def _int_keys(d: dict) -> dict[int, int]:
    return {int(k): int(v) for k, v in d.items()}


def glue_problems(doc: dict, n: int, ledger: CellCountLedger) -> list[str]:
    """Problems with one passing ``glue`` JSON report for dimension n."""
    if doc.get("n") != n or doc.get("k") != n // 2 - 1:
        return [f"report is for n={doc.get('n')}, k={doc.get('k')}; expected n={n}"]
    out = []
    names = tuple(c["name"] for c in doc["checks"])
    if names != EXPECTED_CHECKS:
        out.append(f"n={n}: checks {names}, expected {EXPECTED_CHECKS}")
    failed = [c["name"] for c in doc["checks"] if not c["pass"]]
    if failed:
        out.append(f"n={n}: checks {failed} failed on a valid certificate")
    cells = _int_keys(doc["cells"])
    out += _cell_problems(n, cells, _int_keys(doc["homology"]))
    out += ledger.problems(n, cells)
    if doc["boundary_label"] != boundary_label(n):
        out.append(f"n={n}: boundary label {doc['boundary_label']}, expected {boundary_label(n)}")
    if doc["orientation"]["det_delta"] != (-1) ** (n // 2 - 1):
        out.append(f"n={n}: det(delta') = {doc['orientation']['det_delta']}, expected {(-1) ** (n // 2 - 1)}")
    return out


def glue_text_problems(text: str, n: int) -> list[str]:
    """Problems with the text rendering of a passing ``glue`` report."""
    names = tuple(re.findall(r"^  \[PASS\] ([\w-]+):", text, re.MULTILINE))
    out = []
    if names != EXPECTED_CHECKS:
        out.append(f"n={n}: passing checks {names}, expected {EXPECTED_CHECKS}")
    if f"boundary label: {boundary_label(n)}^{n - 1}\n" not in text:
        out.append(f"n={n}: text report lacks the boundary label {boundary_label(n)}^{n - 1}")
    if not text.endswith("overall: PASS\n"):
        out.append(f"n={n}: text report does not end in an overall PASS")
    return out


def homology_problems(doc: dict, n: int, ledger: CellCountLedger) -> list[str]:
    """Problems with one ``homology --format json`` result for dimension n."""
    cells = _int_keys(doc["cells"])
    out = _cell_problems(n, cells, _int_keys(doc["homology"]))
    out += ledger.problems(n, cells)
    euler = doc["euler"]
    if not (euler["ok"] and euler["cell_total"] == euler["half_boundary_vertices"] == odd_cell_total(n)):
        out.append(f"n={n}: Euler cross-check {euler} does not give {odd_cell_total(n)} on both sides")
    return out


# --- mutated certificates -----------------------------------------------------


def mutate(cert: dict, rng: random.Random) -> tuple[dict, str]:
    """Copy of ``cert`` with one mapped facet's vector made non-primitive.

    The new vector is m * e_j for a seeded facet, m in {2, 3} and j.  Returns
    the copy and the facet.
    """
    out = copy.deepcopy(cert)
    vectors = out["pair"]["vectors"]
    facet = rng.choice(sorted(vectors))
    rank = out["pair"]["torus_rank"]
    j, m = rng.randrange(rank), rng.choice((2, 3))
    vectors[facet] = [m if i == j else 0 for i in range(rank)]
    return out, facet


def expected_failures(cert: dict, facet: str) -> Counter:
    """The mapped facets of every vertex on ``facet``: where validation must fail.

    A set of vectors holding m * e_j (m > 1) never spans a direct summand, and
    the other vertices keep their valid vectors.
    """
    mapped = set(cert["pair"]["vectors"])
    return Counter(
        tuple(sorted(f for f in vertex if f in mapped))
        for vertex in cert["pair"]["polytope"]["vertices"]
        if facet in vertex
    )


def validate_problems(doc: dict, n: int, expected: Counter) -> list[str]:
    """Problems with ``validate --format json``; ``expected`` is empty for a valid input."""
    out = []
    if doc["checked_vertices"] != n * (n + 4) // 2:
        out.append(f"n={n}: {doc['checked_vertices']} vertices checked, expected {n * (n + 4) // 2}")
    if doc["ok"] != (not expected):
        out.append(f"n={n}: validate says ok={doc['ok']}")
    found = Counter(tuple(f["facets"]) for f in doc["failures"])
    if found != expected:
        out.append(f"n={n}: failures at {sorted(found)}, expected {sorted(expected)}")
    return out


def glue_failure_problems(doc: dict, n: int, expected: Counter) -> list[str]:
    """Problems with ``glue --format json`` on a mutated certificate."""
    checks = doc["checks"]
    if not checks or checks[0]["name"] != "w-validity" or checks[0]["pass"]:
        return [f"n={n}: glue did not fail its w-validity check"]
    match = re.search(r"(\d+) failures", checks[0]["details"])
    count = sum(expected.values())
    if match is None or int(match.group(1)) != count:
        return [f"n={n}: glue reports '{checks[0]['details']}', expected {count} failures"]
    return []
