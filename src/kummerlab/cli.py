"""Command-line interface.

`verify` runs the whole pipeline; `fixed-locus`, `census`, `spin`, `betti`
and `f-structure` run the pipeline stages they need and print their
report sections, so they show the same values as `verify`.

Exit codes: 0 when everything checked PASSes, 1 when any claim FAILs,
2 on input errors (unreadable or invalid spec files, unwritable output
paths, out-of-range options, a group closure beyond --max-group-order,
a stage that reports an error).
"""

from __future__ import annotations

import importlib.resources
import math
import sys
from typing import NoReturn

import click

from . import curvature, pipeline
from .specfile import ConstructionSpec, SpecParseError, parse_construction
from .torus import GroupClosureError


def bundled_examples() -> dict[str, str]:
    base = importlib.resources.files("kummerlab") / "data"
    return {p.name: str(p) for p in sorted(base.iterdir()) if p.name.endswith(".spec")}


def _fail(message) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _io_fail(verb: str, path, exc: Exception) -> NoReturn:
    _fail(f"cannot {verb} {path}: {getattr(exc, 'strerror', None) or exc}")


def _load(path: str) -> ConstructionSpec:
    try:
        return parse_construction(path)
    except (OSError, UnicodeDecodeError) as exc:
        _io_fail("read", path, exc)
    except SpecParseError as exc:
        for ln, fld, why in exc.errors:
            click.echo(f"error: {path}:{ln} [{fld}] {why}", err=True)
        sys.exit(2)


def _capped(run, *args, **kwargs):
    """Call a pipeline entry point; a closure beyond the group cap is an input error."""
    try:
        return run(*args, **kwargs)
    except GroupClosureError as exc:
        _fail(exc)


def _group_stage(ctx, spec: ConstructionSpec):
    """Run the group stage into a fresh report; returns (group, report)."""
    report = pipeline.Report()
    return _capped(pipeline.run_group_stage, spec, report, ctx.obj["max_group_order"]), report


def _write_json(ctx, payload: str) -> None:
    path = ctx.obj.get("json_path")
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            _io_fail("write", path, exc)
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
    if not (math.isfinite(tolerance_scale) and tolerance_scale > 0):
        _fail(f"--tolerance-scale must be finite and > 0, got {tolerance_scale}")
    if max_group_order < 1:
        _fail(f"--max-group-order must be at least 1, got {max_group_order}")
    ctx.ensure_object(dict)
    ctx.obj.update(
        json_path=json_path,
        tolerance_scale=tolerance_scale,
        max_group_order=max_group_order,
    )


@main.command()
@click.argument("spec_path", type=click.Path())
@click.pass_context
def verify(ctx, spec_path):
    """Run the full pipeline on a construction spec."""
    spec = _load(spec_path)
    report = _capped(
        pipeline.run_all,
        spec,
        tolerance_scale=ctx.obj["tolerance_scale"],
        max_group_order=ctx.obj["max_group_order"],
    )
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
    group, _ = _group_stage(ctx, spec)
    for name in [element] if element else spec.generator_names:
        if name not in group.names:
            _fail(f"unknown element {name!r}; known: {', '.join(group.names)}")
        comps = group.fixed_loci[group.names.index(name)]
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
    group, report = _group_stage(ctx, _load(spec_path))
    pipeline.run_census_stage(group, report)
    sec = report.sections["census"]
    if "error" in sec:
        _fail(sec["error"])
    click.echo(
        f"{sec['total_components']} components in {sec['orbit_count']} orbits "
        f"(sizes {sorted(sec['orbit_sizes'])})"
    )
    for o in sec["orbits"]:
        base = ", ".join(o["representative"]["basepoint"])
        trans = ", ".join(o["translation_elements"]) or "none"
        click.echo(
            f"  orbit size {o['size']}  rep ({base})  model {o['local_model']}  "
            f"length factor {o['quotient_length_factor']}  translations: {trans}"
        )


@main.command()
@click.argument("spec_path", type=click.Path())
@click.option("--square-plus", is_flag=True, help="Recompute squares under e_i^2 = +1.")
@click.pass_context
def spin(ctx, spec_path, square_plus):
    """Print the spin lifting obstruction of the generator family."""
    spec = _load(spec_path)
    group, report = _group_stage(ctx, spec)
    pipeline.run_spin_stage(spec, group, report, square_sign=1 if square_plus else -1)
    sec = report.sections["spin"]
    if "error" in sec:
        _fail(sec["error"])
    if "lifts" in sec:
        for name, lift in sec["lifts"].items():
            click.echo(f"lift({name}) = ±({lift})")
        click.echo(f"squares ({sec['square_convention']}): {sec['squares']}")
        click.echo(f"commutator signs: {sec['commutator_signs']}")
    tail = ""
    if "witness" in sec:
        tail = f"  witness: ({', '.join(sec['witness'])})"
    elif "reason" in sec:
        tail = f"  reason: {sec['reason']}"
    click.echo(f"verdict: {sec['verdict']}{tail}")


@main.command()
@click.argument("spec_path", type=click.Path())
@click.pass_context
def betti(ctx, spec_path):
    """Print orbifold and resolved Betti numbers."""
    group, report = _group_stage(ctx, _load(spec_path))
    census = pipeline.run_census_stage(group, report)
    cert = pipeline.run_pi1_stage(group, report)
    pipeline.run_betti_stage(group, census, cert, report)
    sec = report.sections["betti"]
    click.echo(f"orbifold betti: {sec['orbifold']}")
    click.echo(f"invariant 2-forms: {sec['invariant_two_forms'] or ['none']}")
    res = sec["resolved"]
    if "refused" in res:
        click.echo(f"resolved: refused ({res['refused']})")
    else:
        click.echo(f"resolved: b2 = {res['b2']}, b3 = {res['b3']}, euler = {res['euler']}")


@main.command("curvature-scan")
@click.argument("spec_path", type=click.Path())
@click.option("--csv", "csv_path", type=click.Path(), required=True,
              help="Annulus table target; the mu table lands next to it as *.mu.csv.")
@click.pass_context
def curvature_scan(ctx, spec_path, csv_path):
    """Run the gluing curvature scans and write the CSV tables."""
    spec = _load(spec_path)
    if spec.gluing is None:
        _fail("spec has no gluing block")
    glue = spec.gluing
    gscan = curvature.glue_ricci_scan(glue.d_values, glue.annulus_grid)
    mu = curvature.mu_report(gscan, glue.d_values)
    try:
        files = pipeline.write_scan_csv(gscan, mu, csv_path)
    except OSError as exc:
        _io_fail("write", exc.filename, exc)
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
        _fail("spec has no atlas")
    group, report = _group_stage(ctx, spec)
    pipeline.run_fstructure_stage(spec, group, report)
    sec = report.sections["f_structure"]
    for row in sec["checks"]:
        detail = f"  ({row['detail']})" if row["detail"] else ""
        click.echo(f"{row['status']:4s}  {row['name']}{detail}")
    click.echo(f"polarized: {sec['polarized']}  rank: {sec['rank']}  overall: {sec['overall']}")
    _write_json(ctx, pipeline.Report(sections={"f_structure": sec}, claims=report.claims).to_json())
    sys.exit(0 if sec["overall"] == "PASS" else 1)


@main.command()
def examples():
    """List the bundled construction spec files."""
    for name, path in bundled_examples().items():
        click.echo(f"{name}\t{path}")


if __name__ == "__main__":
    main()
