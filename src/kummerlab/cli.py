"""Command-line interface.

`verify` runs the whole pipeline; `fixed-locus`, `census`, `spin`, `betti`
and `f-structure` run the pipeline stages they need and print their
report sections, so they show the same values as `verify`.

Exit codes: 0 when everything checked PASSes, 1 when any claim FAILs,
2 on input errors (unreadable or invalid spec files, unwritable output
paths, out-of-range options, a group closure beyond --max-group-order,
running out of memory, a stage that reports an error).
"""

from __future__ import annotations

import importlib.resources
import math
import sys
from typing import NoReturn

import click

from . import curvature, pipeline, torus
from .specfile import ConstructionSpec, SpecParseError, parse_construction
from .torus import GroupClosureError


def bundled_examples() -> dict[str, str]:
    base = importlib.resources.files("kummerlab") / "data"
    return {p.name: str(p) for p in sorted(base.iterdir()) if p.name.endswith(".spec")}


def _echo(message: str, err: bool = False) -> None:
    """click.echo to the sys.stdout or sys.stderr of the moment.

    Without file=, click caches the stream it resolves in a WeakKeyDictionary
    whose value is the key itself, so the entry is never freed, and click's
    CliRunner brings new streams on every in-process invocation.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _fail(message) -> NoReturn:
    _echo(f"error: {message}", err=True)
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
            _echo(f"error: {path}:{ln} [{fld}] {why}", err=True)
        sys.exit(2)


class _Main(click.Group):
    """A closure beyond the group cap and running out of memory are input errors."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except GroupClosureError as exc:
            _fail(exc)
        except MemoryError:
            _fail("out of memory; lower --max-group-order or use a smaller spec")


def _group(ctx, spec: ConstructionSpec) -> torus.GroupTable:
    """The closure of the spec's generators, capped by --max-group-order."""
    return torus.generate_group(spec.generators, spec.generator_names, max_order=ctx.obj["max_group_order"])


def _write_json(ctx, report: pipeline.Report) -> None:
    """Encode the report and write it, only when --json names a path."""
    path = ctx.obj.get("json_path")
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
        except OSError as exc:
            _io_fail("write", path, exc)
        _echo(f"wrote {path}")


@click.group(cls=_Main)
@click.option("--json", "json_path", type=click.Path(), default=None,
              help="Write the JSON report to this path.")
@click.option("--tolerance-scale", type=float, default=1.0, show_default=True,
              help="Multiply every numeric tolerance window by this factor.")
@click.option("--max-group-order", type=int, default=torus.MAX_GROUP_ORDER, show_default=True,
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
    report = pipeline.run_all(
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
        _echo(f"{c.status:4s}  {c.name}" + (f"  ({'; '.join(map(str, extra))})" if extra else ""))
    _echo(f"overall: {report.overall}")
    _write_json(ctx, report)
    sys.exit(0 if report.overall == "PASS" else 1)


@main.command("fixed-locus")
@click.argument("spec_path", type=click.Path())
@click.option("--element", default=None, help="Element name (default: every generator).")
@click.pass_context
def fixed_locus_cmd(ctx, spec_path, element):
    """Print the fixed components of group elements."""
    spec = _load(spec_path)
    group = _group(ctx, spec)
    for name in [element] if element else spec.generator_names:
        index = group.word_index(name)
        if index is None:
            _fail(f"unknown element {name!r}; the group has {group.order} elements, named as "
                  f"'*'-products of the generators {', '.join(spec.generator_names)}")
        comps = torus.fixed_locus(group.elements[index])
        _echo(f"{name}: {len(comps)} component(s)")
        for comp in comps:
            base = ", ".join(str(x) for x in comp.basepoint)
            dirs = "; ".join(str(list(d)) for d in comp.directions) or "point"
            _echo(f"  dim {comp.dimension}  basepoint ({base})  directions {dirs}")


@main.command()
@click.argument("spec_path", type=click.Path())
@click.pass_context
def census(ctx, spec_path):
    """Print the singular-locus census."""
    group, report = _group(ctx, _load(spec_path)), pipeline.Report()
    pipeline.run_census_stage(group, report)
    sec = report.sections["census"]
    if "error" in sec:
        _fail(sec["error"])
    _echo(
        f"{sec['total_components']} components in {sec['orbit_count']} orbits "
        f"(sizes {sorted(sec['orbit_sizes'])})"
    )
    for o in sec["orbits"]:
        base = ", ".join(o["representative"]["basepoint"])
        trans = ", ".join(o["translation_elements"]) or "none"
        _echo(
            f"  orbit size {o['size']}  rep ({base})  model {o['local_model']}  "
            f"length factor {o['quotient_length_factor']}  translations: {trans}"
        )


@main.command()
@click.argument("spec_path", type=click.Path())
@click.pass_context
def spin(ctx, spec_path):
    """Print the spin lifting obstruction of the generator family."""
    spec = _load(spec_path)
    group, report = _group(ctx, spec), pipeline.Report()
    pipeline.run_spin_stage(spec, group, report)
    sec = report.sections["spin"]
    if "error" in sec:
        _fail(sec["error"])
    if "lifts" in sec:
        for name, lift in sec["lifts"].items():
            _echo(f"lift({name}) = ±({lift})")
        _echo(f"squares ({sec['square_convention']}): {sec['squares']}")
        _echo(f"commutator signs: {sec['commutator_signs']}")
    tail = ""
    if "witness" in sec:
        tail = f"  witness: ({', '.join(sec['witness'])})"
    elif "reason" in sec:
        tail = f"  reason: {sec['reason']}"
    _echo(f"verdict: {sec['verdict']}{tail}")


@main.command()
@click.argument("spec_path", type=click.Path())
@click.pass_context
def betti(ctx, spec_path):
    """Print orbifold and resolved Betti numbers."""
    group, report = _group(ctx, _load(spec_path)), pipeline.Report()
    census = pipeline.run_census_stage(group, report)
    cert = pipeline.run_pi1_stage(group, report)
    pipeline.run_betti_stage(group, census, cert, report)
    sec = report.sections["betti"]
    _echo(f"orbifold betti: {sec['orbifold']}")
    _echo(f"invariant 2-forms: {sec['invariant_two_forms'] or ['none']}")
    res = sec["resolved"]
    if "refused" in res:
        _echo(f"resolved: refused ({res['refused']})")
    else:
        _echo(f"resolved: b2 = {res['b2']}, b3 = {res['b3']}, euler = {res['euler']}")


@main.command("curvature-scan")
@click.argument("spec_path", type=click.Path())
@click.option("--csv", "csv_path", type=click.Path(), required=True,
              help="Annulus table target; the mu table lands next to it as *.mu.csv.")
@click.pass_context
def curvature_scan(ctx, spec_path, csv_path):
    """Run the gluing curvature scans and write the CSV tables."""
    glue = _load(spec_path).gluing
    if glue is None:
        _fail("spec has no gluing block")
    gscan = curvature.glue_ricci_scan(glue.d_values, glue.annulus_grid)
    mu = curvature.mu_report(gscan)
    try:
        files = pipeline.write_scan_csv(gscan, mu, csv_path)
    except OSError as exc:
        _io_fail("write", exc.filename, exc)
    _echo(
        f"sup|Ric| slope {gscan.series['sup_ric_annulus'].slope:.4f}, "
        f"rescaled slope {mu.series['rescaled_sup_ric'].slope:.4f}"
    )
    for f in files:
        _echo(f"wrote {f}")


@main.command("f-structure")
@click.argument("spec_path", type=click.Path())
@click.pass_context
def f_structure(ctx, spec_path):
    """Run the F-structure checks of the bundled atlas."""
    spec = _load(spec_path)
    if not spec.atlas:
        _fail("spec has no atlas")
    group, report = _group(ctx, spec), pipeline.Report()
    pipeline.run_fstructure_stage(spec, group, report)
    sec = report.sections["f_structure"]
    for row in sec["checks"]:
        detail = f"  ({row['detail']})" if row["detail"] else ""
        _echo(f"{row['status']:4s}  {row['name']}{detail}")
    _echo(f"polarized: {sec['polarized']}  rank: {sec['rank']}  overall: {sec['overall']}")
    _write_json(ctx, pipeline.Report(sections={"f_structure": sec}, claims=report.claims))
    sys.exit(0 if sec["overall"] == "PASS" else 1)


@main.command()
def examples():
    """List the bundled construction spec files."""
    for name, path in bundled_examples().items():
        _echo(f"{name}\t{path}")


if __name__ == "__main__":
    main()
