"""Full verification pipeline: group mechanics through curvature scans.

run_all() executes every stage a construction spec enables and assembles
a deterministic report: group closure, fixed loci, singular census,
simple-connectivity certificate, spin obstruction, invariant cohomology,
curvature decay scans, and F-structure verification, followed by the
expected-values comparison.  Exit semantics: the report FAILs iff any
claim row fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import clifford, curvature, forms, fstructure, torus
from .intlinalg import int_det
from .specfile import ConstructionSpec

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

    def to_dict(self) -> dict:
        out = dict(self.sections)
        out["claims"] = [c.to_dict() for c in self.claims]
        out["overall"] = self.overall
        return _normalize(out)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _round_sig(x: float) -> float:
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


def _normalize(obj):
    """Deterministic JSON-able copy: floats rounded, exact types stringified."""
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return _round_sig(obj)
    return str(obj)


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
    try:
        census = torus.singular_census(group)
    except ValueError as exc:
        report.sections["census"] = {"error": str(exc)}
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
    mats = []
    for gen in spec.generators:
        mats.append([list(row) for row in gen.linear])
    try:
        rep = clifford.spin_obstruction(mats, square_sign=square_sign)
    except ValueError as exc:
        report.sections["spin"] = {"error": str(exc)}
        return None
    if 2 % group.exponent:
        # The commutator/square criterion is valid only when every element
        # squares to the identity, i.e. for elementary abelian 2-groups.
        report.sections["spin"] = {
            "verdict": "UNSUPPORTED",
            "reason": f"group has exponent {group.exponent}; the lifting criterion "
            "holds for elementary abelian 2-groups (exponent 1 or 2)",
        }
        return None
    names = spec.generator_names
    section = {
        "lifts": {names[i]: str(p.lift) for i, p in enumerate(rep.lifts)},
        "commutator_signs": rep.commutator_signs,
        "squares": rep.squares,
        "square_convention": f"e_i^2 = {rep.square_convention:+d}",
        "verdict": rep.verdict,
    }
    if rep.witness is not None:
        i, j = rep.witness
        section["witness"] = [names[i], names[j]] if i != j else [names[i]]
        section["conclusion"] = "quotient-complement is nonspin"
    report.sections["spin"] = section
    return rep


def run_betti_stage(group, census, cert, report: Report):
    table = forms.orbifold_betti(group)
    # det is multiplicative, so the generators decide orientation.
    orientable = all(
        int_det([list(r) for r in group.elements[g].linear]) == 1 for g in group.generator_indices
    )
    section = {
        "orbifold": list(table.b),
        "invariant_two_forms": table.invariant[2].basis_strings() if group.dim >= 2 else [],
        "duality": table.duality_holds(),
        "orientation_preserving": orientable,
    }
    for k in range(group.dim + 1):
        burn = forms.burnside_dimension(group, k)
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
    elif cert is not None and census is not None:
        try:
            resolved = forms.resolved_betti(table, census, cert)
        except ValueError as exc:
            section["resolved"] = {"refused": str(exc)}
    elif census is None:
        section["resolved"] = {"refused": f"census unavailable: {report.sections['census']['error']}"}
    if resolved is not None:
        section["resolved"] = {
            "b2": resolved.b2_resolved,
            "b3": resolved.b3_resolved,
            "vector": resolved.resolved_vector(),
            "euler": resolved.euler,
        }
        report.claim("betti.euler_zero", resolved.euler == 0, value=resolved.euler, expected=0)
    report.sections["betti"] = section
    return table, resolved


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
    sups = [curvature.cohomo_curvature(prof, r).ric_norm for r in glue.ricci_flat_radii]
    section["instanton_ricci"] = {
        "radii": list(glue.ricci_flat_radii),
        "sup_ric": max(sups),
        "tolerance": tol,
    }
    report.claim(
        "curvature.instanton_ricci_flat", max(sups) < tol, value=max(sups), tolerance=tol
    )

    scan = curvature.decay_scan(prof, glue.decay_radii)
    dev, rm = scan.series["metric_deviation"], scan.series["rm_norm"]
    section["decay"] = {
        "radii": list(glue.decay_radii),
        "metric_deviation": {"values": dev.values, "slope": dev.slope, "residual": dev.residual},
        "rm_norm": {"values": rm.values, "slope": rm.slope, "residual": rm.residual},
    }
    t, w = SLOPE_WINDOWS["deviation"]
    report.claim(
        "curvature.deviation_slope",
        dev.slope is not None and abs(dev.slope - t) <= w * tolerance_scale,
        value=dev.slope, expected=t, tolerance=w * tolerance_scale,
    )
    t, w = SLOPE_WINDOWS["rm"]
    report.claim(
        "curvature.rm_slope",
        rm.slope is not None and abs(rm.slope - t) <= w * tolerance_scale,
        value=rm.slope, expected=t, tolerance=w * tolerance_scale,
    )

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
    t, w = SLOPE_WINDOWS["glue"]
    report.claim(
        "curvature.glue_ricci_slope",
        sup_ric.slope is not None and abs(sup_ric.slope - t) <= w * tolerance_scale,
        value=sup_ric.slope, expected=t, tolerance=w * tolerance_scale,
    )
    t, w = SLOPE_WINDOWS["rescaled"]
    report.claim(
        "curvature.rescaled_ricci_slope",
        resc.slope is not None and abs(resc.slope - t) <= w * tolerance_scale,
        value=resc.slope, expected=t, tolerance=w * tolerance_scale,
    )
    report.claim(
        "curvature.mu_monotone_decreasing",
        all(b < a for a, b in zip(mus, mus[1:])),
        value=mus,
    )
    report.sections["curvature"] = section
    return gscan, mu


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
    return frep


def run_expected_stage(spec: ConstructionSpec, report: Report, group, census, cert, spin_rep, resolved, frep):
    exp = spec.expected
    if not exp:
        return
    loci = report.sections["fixed_loci"]["per_element"]
    for name, count in exp.get("fixed_circles", {}).items():
        report.claim(
            f"expected.fixed_circles.{name}",
            loci.get(name) == count,
            value=loci.get(name), expected=count,
        )
    if "abelian" in exp:
        report.claim("expected.abelian", group.abelian == exp["abelian"], value=group.abelian, expected=exp["abelian"])
    if "orbits" in exp:
        got = census.orbit_count if census else None
        report.claim("expected.orbits", got == exp["orbits"], value=got, expected=exp["orbits"])
    if "half_orbits" in exp:
        got = (
            sum(1 for o in census.orbits if o.translation_elements) if census else None
        )
        report.claim("expected.half_orbits", got == exp["half_orbits"], value=got, expected=exp["half_orbits"])
    if "b2_resolved" in exp:
        got = resolved.b2_resolved if resolved else None
        report.claim("expected.b2_resolved", got == exp["b2_resolved"], value=got, expected=exp["b2_resolved"])
    if "b3_resolved" in exp:
        got = resolved.b3_resolved if resolved else None
        report.claim("expected.b3_resolved", got == exp["b3_resolved"], value=got, expected=exp["b3_resolved"])
    if "spin" in exp:
        got = None
        if spin_rep is not None:
            got = "nonspin" if spin_rep.obstructed else "no-obstruction"
        report.claim("expected.spin", got == exp["spin"], value=got, expected=exp["spin"])
    if "pi1" in exp:
        got = cert.status if cert else None
        report.claim("expected.pi1", got == exp["pi1"], value=got, expected=exp["pi1"])
    if "f_rank" in exp:
        got = frep.rank if frep is not None else None
        report.claim("expected.f_rank", got == exp["f_rank"], value=got, expected=exp["f_rank"])


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
    spin_rep = run_spin_stage(spec, group, report)
    _table, resolved = run_betti_stage(group, census, cert, report)
    if spec.gluing is not None:
        run_curvature_stage(spec, report, tolerance_scale)
    frep = None
    if spec.atlas:
        frep = run_fstructure_stage(spec, group, report)
    run_expected_stage(spec, report, group, census, cert, spin_rep, resolved, frep)
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
