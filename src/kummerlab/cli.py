"""Command-line interface.

Exit codes: 0 when everything checked PASSes, 1 when any claim FAILs,
2 on input errors (unreadable or invalid spec files).
"""

from __future__ import annotations

import importlib.resources
import sys

import click

from . import clifford, curvature, forms, pipeline, torus
from .specfile import ConstructionSpec, SpecParseError, parse_construction


def bundled_examples() -> dict[str, str]:
    base = importlib.resources.files("kummerlab") / "data"
    return {p.name: str(p) for p in sorted(base.iterdir()) if p.name.endswith(".spec")}


def _load(path: str) -> ConstructionSpec:
    try:
        return parse_construction(path)
    except FileNotFoundError:
        click.echo(f"error: cannot read {path}", err=True)
        sys.exit(2)
    except SpecParseError as exc:
        for ln, fld, why in exc.errors:
            click.echo(f"error: {path}:{ln} [{fld}] {why}", err=True)
        sys.exit(2)


def _write_json(ctx, payload: str) -> None:
    path = ctx.obj.get("json_path")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        click.echo(f"wrote {path}")


@click.group()
@click.option("--json", "json_path", type=click.Path(), default=None,
              help="Write the JSON report to this path.")
@click.option("--tolerance-scale", type=float, default=1.0, show_default=True,
              help="Multiply every numeric tolerance window by this factor.")
@click.option("--max-group-order", type=int, default=1024, show_default=True,
              help="Abort group closure beyond this many elements.")
@click.pass_context
def main(ctx, json_path, tolerance_scale, max_group_order):
    """Verify Kummer-type torus-quotient constructions claim by claim."""
    ctx.ensure_object(dict)
    ctx.obj.update(
        json_path=json_path,
        tolerance_scale=tolerance_scale,
        max_group_order=max_group_order,
    )


def _build_group(ctx, spec: ConstructionSpec):
    try:
        return torus.generate_group(
            spec.generators, spec.generator_names, max_order=ctx.obj["max_group_order"]
        )
    except torus.GroupClosureError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


@main.command()
@click.argument("spec_path", type=click.Path())
@click.pass_context
def verify(ctx, spec_path):
    """Run the full pipeline on a construction spec."""
    spec = _load(spec_path)
    try:
        report = pipeline.run_all(
            spec,
            tolerance_scale=ctx.obj["tolerance_scale"],
            max_group_order=ctx.obj["max_group_order"],
        )
    except torus.GroupClosureError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    for c in report.claims:
        extra = []
        if c.value is not None:
            extra.append(f"value={c.value}")
        if c.expected is not None:
            extra.append(f"expected={c.expected}")
        if c.tolerance is not None:
            extra.append(f"tol={c.tolerance}")
        if c.detail:
            extra.append(c.detail)
        click.echo(f"{c.status:4s}  {c.name}" + (f"  ({'; '.join(map(str, extra))})" if extra else ""))
    click.echo(f"overall: {report.overall}")
    _write_json(ctx, report.to_json())
    sys.exit(0 if report.overall == "PASS" else 1)


@main.command("fixed-locus")
@click.argument("spec_path", type=click.Path())
@click.option("--element", default=None, help="Element name (default: every generator).")
@click.pass_context
def fixed_locus_cmd(ctx, spec_path, element):
    """Print the fixed components of group elements."""
    spec = _load(spec_path)
    group = _build_group(ctx, spec)
    names = [element] if element else spec.generator_names
    for name in names:
        if name not in group.names:
            click.echo(f"error: unknown element {name!r}; known: {', '.join(group.names)}", err=True)
            sys.exit(2)
        comps = torus.fixed_locus(group.elements[group.names.index(name)])
        click.echo(f"{name}: {len(comps)} component(s)")
        for comp in comps:
            base = ", ".join(str(x) for x in comp.basepoint)
            dirs = "; ".join(str(list(d)) for d in comp.directions) or "point"
            click.echo(f"  dim {comp.dimension}  basepoint ({base})  directions {dirs}")


@main.command()
@click.argument("spec_path", type=click.Path())
@click.pass_context
def census(ctx, spec_path):
    """Print the singular-locus census."""
    spec = _load(spec_path)
    group = _build_group(ctx, spec)
    try:
        cen = torus.singular_census(group)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    click.echo(
        f"{cen.total_components} components in {cen.orbit_count} orbits "
        f"(sizes {sorted(o.size for o in cen.orbits)})"
    )
    for o in cen.orbits:
        base = ", ".join(str(x) for x in o.representative.basepoint)
        trans = ", ".join(group.names[i] for i in o.translation_elements) or "none"
        click.echo(
            f"  orbit size {o.size}  rep ({base})  model {o.local_model}  "
            f"length factor {o.quotient_length_factor}  translations: {trans}"
        )


@main.command()
@click.argument("spec_path", type=click.Path())
@click.option("--square-plus", is_flag=True, help="Recompute squares under e_i^2 = +1.")
@click.pass_context
def spin(ctx, spec_path, square_plus):
    """Print the spin lifting obstruction of the generator family."""
    spec = _load(spec_path)
    sign = 1 if square_plus else -1
    try:
        rep = clifford.spin_obstruction(
            [[list(r) for r in g.linear] for g in spec.generators], square_sign=sign
        )
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    for name, pair in zip(spec.generator_names, rep.lifts):
        click.echo(f"lift({name}) = ±({pair.lift})")
    click.echo(f"squares (e_i^2 = {sign:+d}): {rep.squares}")
    click.echo(f"commutator signs: {rep.commutator_signs}")
    witness = ""
    if rep.witness is not None:
        i, j = rep.witness
        witness = f"  witness: ({spec.generator_names[i]}, {spec.generator_names[j]})"
    click.echo(f"verdict: {rep.verdict}{witness}")


@main.command()
@click.argument("spec_path", type=click.Path())
@click.pass_context
def betti(ctx, spec_path):
    """Print orbifold and resolved Betti numbers."""
    spec = _load(spec_path)
    group = _build_group(ctx, spec)
    table = forms.orbifold_betti(group)
    inv2 = forms.invariant_forms(group, 2)
    click.echo(f"orbifold betti: {table.b}")
    click.echo(f"invariant 2-forms: {inv2.basis_strings() or ['none']}")
    try:
        cen = torus.singular_census(group)
        cert = torus.pi1_certificate(group)
        res = forms.resolved_betti(table, cen, cert)
        click.echo(f"resolved: b2 = {res.b2_resolved}, b3 = {res.b3_resolved}, euler = {res.euler}")
    except ValueError as exc:
        click.echo(f"resolved: refused ({exc})")


@main.command("curvature-scan")
@click.argument("spec_path", type=click.Path())
@click.option("--csv", "csv_path", type=click.Path(), required=True,
              help="Annulus table target; the mu table lands next to it as *.mu.csv.")
@click.pass_context
def curvature_scan(ctx, spec_path, csv_path):
    """Run the gluing curvature scans and write the CSV tables."""
    spec = _load(spec_path)
    if spec.gluing is None:
        click.echo("error: spec has no gluing block", err=True)
        sys.exit(2)
    glue = spec.gluing
    gscan = curvature.glue_ricci_scan(
        glue.d_values, glue.annulus_grid, workers=pipeline.thread_count()
    )
    mu = curvature.mu_report(gscan, glue.d_values)
    files = pipeline.write_scan_csv(gscan, mu, csv_path)
    click.echo(
        f"sup|Ric| slope {gscan.series['sup_ric_annulus'].slope:.4f}, "
        f"rescaled slope {mu.series['rescaled_sup_ric'].slope:.4f}"
    )
    for f in files:
        click.echo(f"wrote {f}")


@main.command("f-structure")
@click.argument("spec_path", type=click.Path())
@click.pass_context
def f_structure(ctx, spec_path):
    """Run the F-structure checks of the bundled atlas."""
    spec = _load(spec_path)
    if not spec.atlas:
        click.echo("error: spec has no atlas", err=True)
        sys.exit(2)
    group = _build_group(ctx, spec)
    report = pipeline.Report()
    frep = pipeline.run_fstructure_stage(spec, group, report)
    for row in report.sections["f_structure"]["checks"]:
        detail = f"  ({row['detail']})" if row["detail"] else ""
        click.echo(f"{row['status']:4s}  {row['name']}{detail}")
    click.echo(
        f"polarized: {frep.polarized}  rank: {frep.rank}  overall: "
        f"{report.sections['f_structure']['overall']}"
    )
    _write_json(ctx, pipeline.Report(sections=report.sections, claims=report.claims).to_json())
    sys.exit(0 if report.sections["f_structure"]["overall"] == "PASS" else 1)


@main.command()
def examples():
    """List the bundled construction spec files."""
    for name, path in bundled_examples().items():
        click.echo(f"{name}\t{path}")


if __name__ == "__main__":
    main()
