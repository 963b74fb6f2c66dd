"""Spans and counters recorded from outside cpbound, around its public functions.

A traced run installs a wrapper on each function in ``TARGETS`` (in every
cpbound module that holds a reference to it) and removes them afterwards; an
untraced run installs nothing.  Wrappers record only inside a request scope,
so set-up and output checking leave no spans.

A span is ``(span id, name, start ns, end ns, parent span id, request id)``.
Spans are kept in memory and written out when the run ends.  Timestamps come
from ``time.monotonic_ns``, which on Linux is one clock for every process, so
spans recorded in a child process line up with the parent's.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

clock = time.monotonic_ns

LAYERS = ("zlinalg", "charfn", "polytope", "cobordism", "cli")
REQUEST_SPAN = "request"


def _matrix_entries(tracer: "Tracer", args, result) -> None:
    m = args[0]
    tracer.counters["zlinalg.matrix_entries"] += m.rows * m.cols


def _validated(tracer: "Tracer", args, result) -> None:
    tracer.counters["charfn.validate.vertices_checked"] += result.checked_vertices
    tracer.counters["charfn.validate.failures"] += len(result.failures)


def _vertex_set(tracer: "Tracer", args, result) -> None:
    # validate() asks is_direct_summand once per vertex with that vertex's vectors.
    tracer.vertex_sets.add(tuple(tuple(v) for v in args[0]))


# (module, attribute, span name or None for a counter-only wrapper, counter hook)
TARGETS = (
    ("zlinalg", "determinant", "zlinalg.determinant", _matrix_entries),
    ("zlinalg", "smith_normal_form", "zlinalg.smith_normal_form", _matrix_entries),
    ("zlinalg", "inverse_unimodular", "zlinalg.inverse_unimodular", _matrix_entries),
    ("zlinalg", "is_direct_summand", None, _vertex_set),
    ("charfn", "validate", "charfn.validate", _validated),
    ("charfn", "restrict_to_facet", "charfn.restrict_to_facet", None),
    ("charfn", "verify_translation", "charfn.verify_translation", None),
    ("charfn", "normalize_simplex_pair", "charfn.normalize_simplex_pair", None),
    ("polytope", "truncated_simplex", "polytope.truncated_simplex", None),
    ("polytope", "SimplePolytope.__init__", "polytope.init", None),
    ("polytope", "face_as_polytope", "polytope.face_as_polytope", None),
    ("polytope", "generate_functional", "polytope.generate_functional", None),
    ("polytope", "LinearFunctional.__call__", "polytope.functional_eval", None),
    ("polytope", "vertex_indices", "polytope.vertex_indices", None),
    ("polytope", "combinatorially_isomorphic", "polytope.combinatorially_isomorphic", None),
    ("polytope", "product", "polytope.product", None),
    ("polytope", "polytope_from_json", "polytope.polytope_from_json", None),
    ("cobordism", "build_W", "cobordism.build_W", None),
    ("cobordism", "boundary_components", "cobordism.boundary_components", None),
    ("cobordism", "identify_simplex_or_product", "cobordism.identify_simplex_or_product", None),
    ("cobordism", "cell_structure", "cobordism.cell_structure", None),
    ("cobordism", "glue_report", "cobordism.glue_report", None),
    ("cobordism", "wmanifold_from_json", "cobordism.wmanifold_from_json", None),
    ("cobordism", "glue_report_to_json", "cobordism.glue_report_to_json", None),
    ("cli", "run", "cli.run", None),
)

SPAN_NAMES = tuple(name for _, _, name, _ in TARGETS if name)

# Totals summed over requests and reported per request.
COUNTERS = (
    "zlinalg.matrix_entries",
    "charfn.validate.vertices_checked",
    "charfn.validate.failures",
    "charfn.distinct_vertex_sets",
    "cli.json_in_bytes",
    "cli.json_out_bytes",
)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter[str] = Counter()
        self.process_starts_ns: list[int] = []
        self.vertex_sets: set = set()
        self.request: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------------

    @contextmanager
    def request_scope(self, request_id: int, root: str | None = REQUEST_SPAN):
        """Record the spans of one request, under a root span named ``root`` if given."""
        self.request = request_id
        self.vertex_sets = set()
        sid = next(self._ids) if root else None
        self._stack = [sid] if root else []
        start = clock()
        try:
            yield
        finally:
            if root:
                self.spans.append((sid, root, start, clock(), None, request_id))
            self.counters["charfn.distinct_vertex_sets"] += len(self.vertex_sets)
            self.request = None
            self._stack = []

    def _wrap(self, fn, name: str | None, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                parent = tracer._stack[-1] if tracer._stack else None
                sid = next(tracer._ids)
                tracer._stack.append(sid)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    tracer._stack.pop()
                    tracer.spans.append((sid, name, start, end, parent, tracer.request))
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # --- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded cpbound module that refers to it."""
        import cpbound.cli  # noqa: F401  (loads every layer)

        modules = [m for n, m in sys.modules.items() if n == "cpbound" or n.startswith("cpbound.")]
        for module_name, attr, name, hook in TARGETS:
            module = sys.modules[f"cpbound.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(original, name, hook))
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- crossing a process boundary ------------------------------------------

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}

    def absorb(self, child: dict) -> None:
        """Add a child process's spans to the current request, under its root span."""
        parent = self._stack[-1] if self._stack else None
        ids: dict[int, int] = {}
        for sid, *_ in child["spans"]:
            ids[sid] = next(self._ids)
        for sid, name, start, end, child_parent, _ in child["spans"]:
            mapped = ids[child_parent] if child_parent is not None else parent
            self.spans.append((ids[sid], name, start, end, mapped, self.request))
        self.counters.update(child["counters"])

    def write(self, path: Path, header: dict) -> None:
        """One JSON line of ``header`` and the counters, then one JSON array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "counters": dict(self.counters)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[int, int]:
    """Each span's duration minus the part of it that its child spans cover, in ns."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0
        run_start = run_end = None
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (end - start) - covered
    return out


def per_request(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-layer metrics, each averaged over ``requests`` traced requests."""
    requests = max(requests, 1)
    own = self_times(tracer.spans)
    calls: Counter[str] = Counter()
    self_ns: Counter[str] = Counter()
    for span in tracer.spans:
        calls[span[1]] += 1
        self_ns[span[1]] += own[span[0]]
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / requests
        out[f"{name}.self_s"] = self_ns[name] / requests / 1e9
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_ns.items() if k.startswith(layer + ".")) / requests / 1e9
    out["request.outside_layers_s"] = self_ns[REQUEST_SPAN] / requests / 1e9
    for name in COUNTERS:
        out[name] = tracer.counters[name] / requests
    out["polytope.functional_evals"] = out["polytope.functional_eval.calls"]
    kernel_calls = calls["zlinalg.determinant"] + calls["zlinalg.smith_normal_form"]
    out["charfn.useful_ratio"] = (
        tracer.counters["charfn.distinct_vertex_sets"] / kernel_calls if kernel_calls else 0.0
    )
    starts = tracer.process_starts_ns
    out["cli.process_start_s"] = sum(starts) / len(starts) / 1e9 if starts else 0.0
    return out
