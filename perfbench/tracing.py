"""In-memory spans and counters installed at kummerlab's module bindings.

Nothing under `src/` knows about tracing. A `Tracer` replaces the module
attributes that callers look up (for example `torus.fixed_locus`, which
`pipeline` calls through the module, and `fstructure.fixed_locus`, which
`fstructure` imported by name) with wrappers that record a span or bump a
counter, and puts the originals back on exit.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

SPAN, COUNT = "span", "count"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


def _claims(report):
    return {"pipeline.claims": len(report.claims),
            "pipeline.claims_failed": sum(1 for c in report.claims if not c.passed)}


def _checks(frep):
    checks = frep.all_checks
    return {"fstructure.checks": len(checks),
            "fstructure.checks_failed": sum(1 for c in checks if not c.passed)}


def _glue_points(args, kwargs):
    d_values = args[0] if args else kwargs["d_values"]
    grid = args[1] if len(args) > 1 else kwargs.get("grid_points", 512)
    return {"curvature.glue.points": len(d_values) * grid}


def bindings():
    """(module, attribute, layer name, kind, result hook, argument hook) per binding."""
    from kummerlab import cli, clifford, curvature, forms, fstructure, intlinalg, pipeline, torus

    stages = ("group", "census", "pi1", "spin", "betti", "curvature", "fstructure", "expected")
    return [
        (cli, "parse_construction", "specfile.parse_construction", SPAN, None, None),
        (torus, "generate_group", "torus.generate_group", SPAN,
         lambda g: {"torus.group_elements": g.order, "torus.groups": 1}, None),
        (torus, "fixed_locus", "torus.fixed_locus", SPAN, None, None),
        (fstructure, "fixed_locus", "torus.fixed_locus", SPAN, None, None),
        (torus, "singular_census", "torus.singular_census", SPAN,
         lambda c: {"torus.census.components": c.total_components}, None),
        (torus, "transform_component", "torus.transform_component", COUNT, None, None),
        (torus, "pi1_certificate", "torus.pi1_certificate", SPAN, None, None),
        (torus, "unimodular_inverse", "intlinalg.unimodular_inverse", COUNT, None, None),
        (intlinalg, "unimodular_inverse", "intlinalg.unimodular_inverse", COUNT, None, None),
        (torus, "smith_normal_form", "intlinalg.smith_normal_form", COUNT, None, None),
        (intlinalg, "smith_normal_form", "intlinalg.smith_normal_form", COUNT, None, None),
        (clifford, "spin_obstruction", "clifford.spin_obstruction", SPAN, None, None),
        (forms, "orbifold_betti", "forms.orbifold_betti", SPAN, None, None),
        (forms, "invariant_forms", "forms.invariant_forms", SPAN, None, None),
        (forms, "resolved_betti", "forms.resolved_betti", SPAN, None, None),
        (forms, "induced_action", "forms.induced_action", COUNT, None, None),
        (curvature, "calibration", "curvature.calibration", SPAN, None, None),
        (curvature, "decay_scan", "curvature.decay_scan", SPAN, None, None),
        (curvature, "glue_ricci_scan", "curvature.glue_ricci_scan", SPAN, None, _glue_points),
        (curvature, "mu_report", "curvature.mu_report", SPAN, None, None),
        (curvature, "cohomo_curvature", "curvature.cohomo_curvature", COUNT, None, None),
        (fstructure, "extend_rule", "fstructure.extend_rule", SPAN, None, None),
        (fstructure, "verify_f_structure", "fstructure.verify_f_structure", SPAN, _checks, None),
        (pipeline, "run_all", "pipeline.run_all", SPAN, _claims, None),
        *[(pipeline, f"run_{s}_stage", f"pipeline.run_{s}_stage", SPAN, None, None) for s in stages],
        (pipeline, "write_scan_csv", "pipeline.write_scan_csv", SPAN, None, None),
        (pipeline.Report, "to_json", "pipeline.Report.to_json", SPAN, None, None),
    ]


class Tracer:
    """Spans and counters of one traced operation.

    Use as a context manager: the wrappers are installed on entry and the
    original bindings restored on exit. Single-threaded only, which holds
    while KUMMERLAB_THREADS is unset.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.binding_calls: Counter = Counter()  # "module.attribute" -> calls
        self._layer_of: dict[str, str] = {}  # "module.attribute" -> layer name
        self._stack: list[int] = []
        self._saved = []

    def __enter__(self):
        for owner, attr, name, kind, on_result, on_args in bindings():
            original = owner.__dict__[attr]
            binding = f"{owner.__name__}.{attr}"
            self._layer_of[binding] = name
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, binding, name, kind, on_result, on_args))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, binding, name, kind, on_result, on_args):
        counters, calls = self.counters, self.binding_calls

        if kind == COUNT:
            def counted(*args, **kwargs):
                calls[binding] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            calls[binding] += 1
            if on_args:
                counters.update(on_args(args, kwargs))
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result:
                counters.update(on_result(result))
            return result
        return spanned

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def calls(self, name: str) -> int:
        """Calls of a layer function, summed over every binding of it."""
        return sum(n for b, n in self.binding_calls.items() if self._layer_of[b] == name)

    def total_s(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_s(self, name: str) -> float:
        """Duration of the named spans minus the time their child spans cover."""
        child_s = Counter()
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        return sum(s.end - s.start - child_s[i] for i, s in enumerate(self.spans) if s.name == name)

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]

