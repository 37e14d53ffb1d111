"""Full verification pipeline: group mechanics through curvature scans.

run_all() executes every stage a construction spec enables and assembles
a deterministic report: group closure, fixed loci, singular census,
simple-connectivity certificate, spin obstruction, invariant cohomology,
curvature decay scans, and F-structure verification, followed by the
expected-values comparison.  Exit semantics: the report FAILs iff any
claim row fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from . import clifford, curvature, forms, fstructure, torus
from .specfile import SPIN_WORDS, ConstructionSpec

SLOPE_WINDOWS = {
    "deviation": (-4.0, 0.1),
    "rm": (-6.0, 0.1),
    "glue": (-6.0, 0.2),
    "rescaled": (-4.0, 0.2),
}

VOLUME_NOTE = (
    "volume lower bound is symbolic: the flat region keeps a fixed positive "
    "volume after the 1/(20d) rescale, independent of d"
)


@dataclass
class Claim:
    name: str
    status: str
    value: object = None
    expected: object = None
    tolerance: object = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_dict(self) -> dict:
        out = {"name": self.name, "status": self.status}
        for key in ("value", "expected", "tolerance", "detail"):
            val = getattr(self, key)
            if val not in (None, ""):
                out[key] = val
        return out


@dataclass
class Report:
    sections: dict = field(default_factory=dict)
    claims: list[Claim] = field(default_factory=list)

    @property
    def overall(self) -> str:
        return "PASS" if all(c.passed for c in self.claims) else "FAIL"

    def claim(self, name: str, ok: bool, **kw) -> Claim:
        c = Claim(name=name, status="PASS" if ok else "FAIL", **kw)
        self.claims.append(c)
        return c

    def to_json(self) -> str:
        """The report as JSON, keys sorted and indented by two (see _dump)."""
        claims = [c.to_dict() for c in self.claims]
        return _dump({**self.sections, "claims": claims, "overall": self.overall}, "\n") + "\n"


def _float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(float(f"{x:.12g}"))  # rounded to 12 significant digits
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# JSON text of a leaf by exact type; subclasses (numpy floats, say) go by isinstance.
_LEAVES = {str: _quote, bool: lambda b: "true" if b else "false", type(None): lambda _: "null",
           int: int.__repr__, float: _float}


def _dump(obj, pad: str) -> str:
    """obj's JSON text as json.dumps(..., sort_keys=True, indent=2) writes it
    at the indent pad, a newline plus the enclosing spaces.  Only str, int,
    float, bool and None are written as themselves, and any other leaf (a
    Fraction, a numpy scalar that is no float) as its str."""
    if isinstance(obj, (dict, list, tuple)):
        if not obj:
            return "{}" if isinstance(obj, dict) else "[]"
        inner = pad + "  "
        if isinstance(obj, dict):
            items = obj.items() if set(map(type, obj)) == {str} else {str(k): v for k, v in obj.items()}.items()
            body = [_quote(k) + ": " + (f(v) if (f := _LEAVES.get(type(v))) else _dump(v, inner))
                    for k, v in sorted(items)]
            return "{" + inner + ("," + inner).join(body) + pad + "}"
        body = [f(v) if (f := _LEAVES.get(type(v))) else _dump(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(body) + pad + "]"
    kind = next((t for t in _LEAVES if isinstance(obj, t)), None)
    return _LEAVES[kind](obj) if kind else _quote(str(obj))


def _component_dict(comp: torus.FixedComponent) -> dict:
    return {
        "basepoint": [str(x) for x in comp.basepoint],
        "directions": [list(d) for d in comp.directions],
        "dimension": comp.dimension,
    }


def run_group_stage(spec: ConstructionSpec, report: Report, max_group_order: int):
    group = torus.generate_group(spec.generators, spec.generator_names, max_order=max_group_order)
    report.sections["group"] = {
        "order": group.order,
        "abelian": group.abelian,
        "exponent": group.exponent,
        "elements": group.names,
    }
    loci = group.fixed_loci
    report.sections["fixed_loci"] = {
        "per_element": {group.names[i]: len(loci[i]) for i in range(group.order)},
        "fixed_point_free": [
            group.names[i] for i in range(1, group.order) if not loci[i]
        ],
    }
    return group


def run_census_stage(group, report: Report):
    """The census section; an error section instead when a fixed component
    is not a circle, the resolution being one of circle singularities."""
    census = torus.singular_census(group)
    comps = census.components
    other = [d for d in (len(comps.lattices[k]) for k in comps.lattice.tolist()) if d != 1]
    if other:
        report.sections["census"] = {
            "error": f"circles-only census requested but a fixed component has dimension {other[0]}"
        }
        return None
    sizes = [o.size for o in census.orbits]
    report.sections["census"] = {
        "total_components": census.total_components,
        "orbit_count": census.orbit_count,
        "orbit_sizes": sizes,
        "half_translation_orbits": sum(1 for o in census.orbits if o.translation_elements),
        "orbits": [
            {
                "representative": _component_dict(o.representative),
                "size": o.size,
                "setwise_stabilizer": [group.names[i] for i in o.setwise_stabilizer],
                "pointwise_stabilizer": [group.names[i] for i in o.pointwise_stabilizer],
                "translation_elements": [group.names[i] for i in o.translation_elements],
                "quotient_length_factor": str(o.quotient_length_factor),
                "local_model": o.local_model,
            }
            for o in census.orbits
        ],
    }
    report.claim(
        "census.orbit_sizes_sum",
        sum(sizes) == census.total_components,
        value=sum(sizes),
        expected=census.total_components,
    )
    return census


def run_pi1_stage(group, report: Report):
    cert = torus.pi1_certificate(group)
    report.sections["pi1"] = {
        "status": cert.status,
        "direction_witnesses": {
            str(j + 1): (group.names[w] if w is not None else None)
            for j, w in cert.direction_witnesses.items()
        },
        "generated_by_fixed_elements": cert.generated_by_fixed,
        "note": cert.note,
    }
    return cert


def run_spin_stage(spec: ConstructionSpec, group, report: Report, square_sign: int = -1):
    try:
        rep = clifford.spin_obstruction([(g.perm, g.signs) for g in spec.generators], square_sign=square_sign)
    except ValueError as exc:
        report.sections["spin"] = {"error": str(exc)}
        return
    if 2 % group.exponent:
        # The commutator/square criterion is valid only when every element
        # squares to the identity, i.e. for elementary abelian 2-groups.
        report.sections["spin"] = {
            "verdict": "UNSUPPORTED",
            "reason": f"group has exponent {group.exponent}; the lifting criterion "
            "holds for elementary abelian 2-groups (exponent 1 or 2)",
        }
        return
    names = spec.generator_names
    section = {
        "lifts": {names[i]: str(lift) for i, lift in enumerate(rep.lifts)},
        "commutator_signs": rep.commutator_signs,
        "squares": rep.squares,
        "square_convention": f"e_i^2 = {rep.square_sign:+d}",
        "verdict": rep.verdict,
    }
    if rep.witness is not None:
        i, j = rep.witness
        section["witness"] = [names[i], names[j]] if i != j else [names[i]]
        section["conclusion"] = "quotient-complement is nonspin"
    report.sections["spin"] = section


def run_betti_stage(group, census, cert, report: Report):
    table = forms.orbifold_betti(group)
    burnside = forms.burnside_dimensions(group)
    orientable = burnside[group.dim] == 1  # the average of det A over the group
    section = {
        "orbifold": list(table.b),
        "invariant_two_forms": table.invariant[2].basis_strings() if group.dim >= 2 else [],
        "duality": table.duality_holds(),
        "orientation_preserving": orientable,
    }
    for k, burn in enumerate(burnside):
        report.claim(
            f"betti.burnside_trace_k{k}",
            burn == table.b[k],
            value=str(burn),
            expected=table.b[k],
        )
    if orientable:
        report.claim("betti.poincare_duality", table.duality_holds())
    else:
        section["duality_note"] = "quotient not orientable; duality not asserted"
    resolved = None
    if not orientable:
        section["resolved"] = {"refused": "action is not orientation-preserving"}
    elif census is None:
        section["resolved"] = {"refused": f"census unavailable: {report.sections['census']['error']}"}
    else:
        try:
            resolved = forms.resolved_betti(table, census, cert)
        except ValueError as exc:
            section["resolved"] = {"refused": str(exc)}
    if resolved is not None:
        section["resolved"] = {
            "b2": resolved.b2_resolved,
            "b3": resolved.b3_resolved,
            "vector": resolved.resolved_vector(),
            "euler": resolved.euler,
        }
        report.claim("betti.euler_zero", resolved.euler == 0, value=resolved.euler, expected=0)
    report.sections["betti"] = section


def run_curvature_stage(spec: ConstructionSpec, report: Report, tolerance_scale: float):
    glue = spec.gluing
    cal = curvature.calibration()
    section: dict = {
        "calibration": {
            "coframe_normalization": cal.coframe_normalization,
            "structure_constant": cal.structure_constant,
            "ricci_contraction": "R[l,l,i,k]",
            "contraction_sign": cal.contraction_sign,
            "sphere_ricci_positive": cal.sphere_ricci_positive,
        }
    }
    prof = curvature.eh_profile()
    tol = glue.ricci_flat_tol * tolerance_scale
    sup = float(curvature.frame_norms(prof, glue.ricci_flat_radii)[0].max())
    section["instanton_ricci"] = {
        "radii": list(glue.ricci_flat_radii),
        "sup_ric": sup,
        "tolerance": tol,
    }
    report.claim("curvature.instanton_ricci_flat", sup < tol, value=sup, tolerance=tol)

    scan = curvature.decay_scan(prof, glue.decay_radii)
    dev, rm = scan.series["metric_deviation"], scan.series["rm_norm"]
    section["decay"] = {
        "radii": list(glue.decay_radii),
        "metric_deviation": {"values": dev.values, "slope": dev.slope, "residual": dev.residual},
        "rm_norm": {"values": rm.values, "slope": rm.slope, "residual": rm.residual},
    }

    gscan = curvature.glue_ricci_scan(glue.d_values, glue.annulus_grid)
    mu = curvature.mu_report(gscan, glue.d_values)
    sup_ric = gscan.series["sup_ric_annulus"]
    resc = mu.series["rescaled_sup_ric"]
    mus = mu.series["mu_proxy"].values
    section["gluing"] = {
        "d_values": list(glue.d_values),
        "annulus_grid": glue.annulus_grid,
        "rows": [
            {
                "d": d,
                "r_sup": gscan.series["r_sup"].values[i],
                "sup_ric_annulus": sup_ric.values[i],
                "sup_rm_annulus": gscan.series["sup_rm_annulus"].values[i],
            }
            for i, d in enumerate(glue.d_values)
        ],
        "sup_ric_slope": sup_ric.slope,
        "sup_ric_residual": sup_ric.residual,
    }
    section["mu"] = {
        "rows": [
            {
                "d": d,
                "rescaled_sup_ric": resc.values[i],
                "diam_bound": mu.series["diam_bound"].values[i],
                "mu_proxy": mus[i],
            }
            for i, d in enumerate(glue.d_values)
        ],
        "rescaled_slope": resc.slope,
        "mu_slope": mu.series["mu_proxy"].slope,
        "diam_bound_formula": curvature.DIAM_BOUND_FORMULA,
        "volume_note": VOLUME_NOTE,
    }
    slopes = (("deviation_slope", "deviation", dev), ("rm_slope", "rm", rm),
              ("glue_ricci_slope", "glue", sup_ric), ("rescaled_ricci_slope", "rescaled", resc))
    for name, window, series in slopes:
        t, w = SLOPE_WINDOWS[window]
        tol = w * tolerance_scale
        ok = series.slope is not None and abs(series.slope - t) <= tol
        report.claim(f"curvature.{name}", ok, value=series.slope, expected=t, tolerance=tol)
    report.claim(
        "curvature.mu_monotone_decreasing",
        all(b < a for a, b in zip(mus, mus[1:])),
        value=mus,
    )
    report.sections["curvature"] = section


def run_fstructure_stage(spec: ConstructionSpec, group, report: Report):
    rules = {}
    errors = []
    for chart_name, table in spec.psi.items():
        try:
            rules[chart_name] = fstructure.extend_rule(group, table)
        except ValueError as exc:
            errors.append(f"{chart_name}: {exc}")
    frep = fstructure.verify_f_structure(spec.atlas, group, rules)
    checks = [
        {"name": c.name, "status": c.status, "detail": c.detail} for c in frep.all_checks
    ]
    report.sections["f_structure"] = {
        "checks": checks,
        "rule_errors": errors,
        "polarized": frep.polarized,
        "rank": frep.rank,
        "overall": "PASS" if (frep.passed and not errors) else "FAIL",
        "minvol_note": (
            "polarized structure verified: vanishing minimal volume follows from the cited collapse theorem"
            if frep.passed and frep.polarized and not errors
            else "polarized structure not verified; no minimal-volume conclusion"
        ),
    }
    failing = [c.name for c in frep.all_checks if not c.passed] + errors
    report.claim(
        "f_structure.conditions",
        not failing,
        detail="; ".join(failing) if failing else "all invariance, covariance, freeness and overlap checks pass",
    )
    report.claim("f_structure.polarized", frep.polarized, value=frep.polarized)


def element_index(spec: ConstructionSpec, group) -> dict[str, int]:
    """Element index by name: the closure's names, then the declared generator
    names, which resolve by element (a repeated generator has no closure name)."""
    known = dict(zip(group.names, range(group.order)))
    known.update(zip(spec.generator_names, group.right[0]))
    return known


# The [expected] keys after fixed_circles, in claim order, each with where the
# report's sections hold its observed value (None when the stage gave none).
_EXPECTED_VALUES = {
    "abelian": lambda s: s["group"]["abelian"],
    "orbits": lambda s: s["census"].get("orbit_count"),
    "half_orbits": lambda s: s["census"].get("half_translation_orbits"),
    "b2_resolved": lambda s: s["betti"]["resolved"].get("b2"),
    "b3_resolved": lambda s: s["betti"]["resolved"].get("b3"),
    "spin": lambda s: SPIN_WORDS.get(s["spin"].get("verdict")),
    "pi1": lambda s: s["pi1"]["status"],
    "f_rank": lambda s: s.get("f_structure", {}).get("rank"),
}


def run_expected_stage(spec: ConstructionSpec, report: Report, group):
    exp = spec.expected
    index = element_index(spec, group)
    loci = report.sections["fixed_loci"]["per_element"]
    rows = [(f"fixed_circles.{name}", loci[group.names[index[name]]] if name in index else None, count)
            for name, count in exp.get("fixed_circles", {}).items()]
    rows += [(key, observed(report.sections), exp[key])
             for key, observed in _EXPECTED_VALUES.items() if key in exp]
    for key, got, want in rows:
        report.claim(f"expected.{key}", got == want, value=got, expected=want)


def run_all(
    spec: ConstructionSpec,
    tolerance_scale: float = 1.0,
    max_group_order: int = 1024,
) -> Report:
    """Execute every stage the spec enables and return the report."""
    report = Report()
    report.sections["spec"] = {
        "source": spec.source,
        "version": spec.version,
        "dimension": spec.dimension,
        "generators": {
            name: {
                "linear": [list(r) for r in gen.linear],
                "translation": [str(t) for t in gen.translation],
            }
            for name, gen in zip(spec.generator_names, spec.generators)
        },
        "tolerance_scale": tolerance_scale,
    }

    group = run_group_stage(spec, report, max_group_order)
    census = run_census_stage(group, report)
    cert = run_pi1_stage(group, report)
    run_spin_stage(spec, group, report)
    run_betti_stage(group, census, cert, report)
    if spec.gluing is not None:
        run_curvature_stage(spec, report, tolerance_scale)
    if spec.atlas:
        run_fstructure_stage(spec, group, report)
    run_expected_stage(spec, report, group)
    return report


def write_scan_csv(gscan, mu, path) -> list[str]:
    """Write the annulus table to path and the mu table to path+'.mu.csv'.

    Returns the list of files written.  Column schemas are fixed:
    (d, r_sup, sup_ric_annulus, sup_rm_annulus) and
    (d, rescaled_sup_ric, diam_bound, mu_proxy), with a header row; every
    value is written to 12 significant digits.
    """
    path = str(path)
    mu_path = path[: -len(".csv")] + ".mu.csv" if path.endswith(".csv") else path + ".mu.csv"
    tables = ((path, gscan, ("r_sup", "sup_ric_annulus", "sup_rm_annulus")),
              (mu_path, mu, ("rescaled_sup_ric", "diam_bound", "mu_proxy")))
    for target, scan, columns in tables:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(",".join(("d", *columns)) + "\n")
            for i, d in enumerate(scan.parameters):
                row = [d, *(scan.series[c].values[i] for c in columns)]
                fh.write(",".join(f"{x:.12g}" for x in row) + "\n")
    return [path, mu_path]
