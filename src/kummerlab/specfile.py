"""Versioned, line-oriented construction-spec files.

The format keeps every exact quantity as an integer or "p/q" rational
string; floating point appears only in the gluing block (scan radii and
tolerances).  Parsing collects *all* errors with line numbers before
failing, so a bad file reports everything wrong with it at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .curvature import _require_geometric, eh_profile
from .fstructure import ChartSpec, TorusActionSymbol
from .torus import AffineIsometry

SUPPORTED_VERSIONS = (1,)
MAX_ANNULUS_GRID = 2**20  # one scan pass at this size: ~1.3 s, ~275 MiB (2-core Xeon VM)
# The [expected] spin word of each spin verdict, and the words each
# [expected] field with a word value accepts (abelian in any case).
SPIN_WORDS = {"OBSTRUCTED": "nonspin", "LIFTABLE": "no-obstruction"}
_EXPECTED_WORDS = {"abelian": ("true", "false"), "spin": tuple(SPIN_WORDS.values()), "pi1": ("PASS", "FAIL")}
_EXPECTED_INTS = ("orbits", "half_orbits", "b2_resolved", "b3_resolved", "f_rank")
# The keys of each section kind: those given once, and those given on one
# line per row.  Any other key, or a repeat of a single key, is an error.
_SECTION_KEYS = {
    "generator": ({"diag", "translation"}, {"row"}),
    "gluing": ({"d_values", "annulus_grid", "decay_radii", "ricci_flat_radii", "ricci_flat_tol"}, set()),
    "chart": ({"kind", "constrained", "centers", "epsilon", "action", "component_signs", "covering", "of",
               "shrink"}, {"psi"}),
    "expected": ({*_EXPECTED_INTS, *_EXPECTED_WORDS}, {"fixed_circles"}),
}


class SpecParseError(ValueError):
    def __init__(self, errors: list[tuple[int, str, str]]):
        self.errors = errors
        lines = "; ".join(f"line {ln} [{fld}]: {why}" for ln, fld, why in errors)
        super().__init__(f"construction spec invalid: {lines}")


@dataclass
class GluingParams:
    d_values: list[float] = field(default_factory=lambda: [10.0, 20.0, 40.0, 80.0, 160.0])
    annulus_grid: int = 512
    decay_radii: list[float] = field(default_factory=lambda: [10.0, 20.0, 40.0, 80.0, 160.0])
    ricci_flat_radii: list[float] = field(default_factory=lambda: [1.2, 2.0, 5.0, 20.0, 50.0])
    ricci_flat_tol: float = 1e-6


@dataclass
class ConstructionSpec:
    version: int
    dimension: int
    generator_names: list[str]
    generators: list[AffineIsometry]
    gluing: GluingParams | None = None
    atlas: list[ChartSpec] = field(default_factory=list)
    psi: dict[str, dict[str, tuple[int, ...]]] = field(default_factory=dict)
    expected: dict[str, object] = field(default_factory=dict)
    source: str = "<memory>"


def _parse_fraction(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {tok!r}") from None


def _check_gluing_values(key: str, values: list[float]) -> None:
    """The domains the curvature stage needs, so that a bad block is an input error."""
    if not all(math.isfinite(v) for v in values):
        raise ValueError("values must be finite")
    lo, hi = eh_profile().domain
    if key == "d_values":
        if any(d < 4 for d in values):
            raise ValueError("gluing requires d >= 4 so the bolt sits inside the plateau")
        _require_geometric(values, "gluing scan d values")
    elif key == "decay_radii":
        if not all(lo < r < hi for r in values):
            raise ValueError(f"radii must lie in the open domain ({lo}, {hi}) of the instanton profile")
        _require_geometric(values, "decay scan radii")
    elif key == "ricci_flat_radii":
        if not values or not all(lo < r < hi for r in values):
            raise ValueError(
                f"at least one radius, each in the open domain ({lo}, {hi}) of the instanton profile"
            )


def _parse_signs(tokens: list[str]) -> tuple[int, ...]:
    out = []
    for t in tokens:
        if t in ("+", "+1", "1"):
            out.append(1)
        elif t in ("-", "-1"):
            out.append(-1)
        else:
            raise ValueError(f"expected a sign, got {t!r}")
    return tuple(out)


def parse_construction_text(text: str, source: str = "<memory>") -> ConstructionSpec:
    errors: list[tuple[int, str, str]] = []
    version: int | None = None
    dimension: int | None = None
    generator_names: list[str] = []
    generators: list[AffineIsometry] = []
    gluing: GluingParams | None = None
    atlas: list[ChartSpec] = []
    psi: dict[str, dict[str, tuple[int, ...]]] = {}
    expected: dict[str, object] = {}

    references: list[tuple[int, str, tuple[str, ...]]] = []  # complement charts' `of` lines
    words: list[tuple[int, str, str]] = []  # (line, field, element word) of psi and fixed_circles rows
    chart_kinds: dict[str, str] = {}  # declared kind of every [chart] section, valid or not
    headers: set = set()  # "gluing", "expected" and (kind, name) of the other sections read so far
    section: tuple[str, str, int] | None = None  # (kind, name, start line)
    body: list[tuple[int, list[str]]] = []

    def fail(ln: int, fld: str, why: str) -> None:
        errors.append((ln, fld, why))

    def close_section() -> None:
        nonlocal gluing
        if section is None:
            return
        kind, name, start = section
        if kind not in _SECTION_KEYS:
            return fail(start, "section", f"unknown section kind {kind!r}")
        single, rows = _SECTION_KEYS[kind]
        multi: dict[str, list[tuple[int, list[str]]]] = {}  # every line of each key, in order
        for ln, toks in body:
            key = toks[0]
            if key not in single and key not in rows:
                fail(ln, kind, f"unknown {kind} field {key!r}")
            elif key in single and key in multi:
                fail(ln, key, f"repeated key {key!r} in [{kind}]")
            else:
                multi.setdefault(key, []).append((ln, toks[1:]))
        fields = {key: lines[0] for key, lines in multi.items()}
        if kind == "generator":
            _close_generator(name, start, fields, multi)
        elif kind == "gluing":
            gluing = _close_gluing(start, fields)
        elif kind == "chart":
            _close_chart(name, start, fields, multi)
        else:
            _close_expected(multi)

    def _close_generator(name, start, fields, multi) -> None:
        if dimension is None:
            fail(start, "generator", "dimension must be declared before generators")
            return
        n = dimension
        rows: list[list[int]] | None = None
        if "diag" in fields and "row" in multi:
            fail(start, "generator", "generator takes a 'diag' or 'row' linear part, not both")
            return
        if "diag" in fields:
            ln, toks = fields["diag"]
            try:
                signs = [int(t) for t in toks]
                if len(signs) != n:
                    raise ValueError(f"expected {n} diagonal entries")
                rows = [[signs[i] if i == j else 0 for j in range(n)] for i in range(n)]
            except ValueError as exc:
                fail(ln, "diag", str(exc))
                return
        elif "row" in multi:
            rows = []
            for ln, toks in multi["row"]:
                try:
                    row = [int(t) for t in toks]
                    if len(row) != n:
                        raise ValueError(f"expected {n} entries")
                    rows.append(row)
                except ValueError as exc:
                    fail(ln, "row", str(exc))
                    return
            if len(rows) != n:
                fail(start, "row", f"expected {n} rows, got {len(rows)}")
                return
        else:
            fail(start, "generator", "generator needs a 'diag' or 'row' linear part")
            return
        if "translation" not in fields:
            fail(start, "translation", "generator needs a translation line")
            return
        ln, toks = fields["translation"]
        try:
            trans = [_parse_fraction(t) for t in toks]
            if len(trans) != n:
                raise ValueError(f"expected {n} entries")
        except ValueError as exc:
            fail(ln, "translation", str(exc))
            return
        try:
            gen = AffineIsometry(tuple(tuple(r) for r in rows), tuple(trans))
        except ValueError as exc:
            fail(start, "generator", str(exc))
            return
        generator_names.append(name)
        generators.append(gen)

    def _close_gluing(start, fields) -> GluingParams | None:
        params = GluingParams()
        clean = True
        for key in ("d_values", "decay_radii", "ricci_flat_radii"):
            if key in fields:
                ln, toks = fields[key]
                try:
                    values = [float(t) for t in toks]
                    _check_gluing_values(key, values)
                except ValueError as exc:
                    fail(ln, key, str(exc))
                    clean = False
                    continue
                setattr(params, key, values)
        for key, parse, ok, what in (
            ("annulus_grid", int, lambda v: 2 <= v <= MAX_ANNULUS_GRID,
             f"an integer in 2..{MAX_ANNULUS_GRID}"),
            ("ricci_flat_tol", float, lambda v: math.isfinite(v) and v > 0, "a positive number"),
        ):
            if key in fields:
                ln, toks = fields[key]
                try:
                    value = parse(toks[0])
                    if not ok(value):
                        raise ValueError
                except (IndexError, ValueError):
                    fail(ln, key, f"{key} must be {what}")
                    clean = False
                    continue
                setattr(params, key, value)
        return params if clean else None

    def _axes(fld: str, toks: list[str]) -> tuple[int, ...]:
        axes = tuple(int(t) for t in toks)
        if dimension is not None and not all(1 <= a <= dimension for a in axes):
            raise ValueError(f"{fld} axes must lie in 1..{dimension}")
        return axes

    def _close_chart(name, start, fields, multi) -> None:
        chart_kinds[name] = (fields.get("kind", (start, ["ball"]))[1] or ["ball"])[0]
        for key in ("kind", "epsilon", "covering", "shrink"):
            if key in fields and not fields[key][1]:
                return fail(fields[key][0], key, f"{key} needs a value")
        kind = chart_kinds[name]
        try:
            directions = _axes("action", fields["action"][1]) if "action" in fields else ()
            comp_signs = None
            if "component_signs" in fields:
                comp_signs = _parse_signs(fields["component_signs"][1])
            action = TorusActionSymbol(directions, comp_signs)
            covering = fields.get("covering", (start, ["trivial"]))[1][0]
            if kind == "ball":
                a, b = _axes("constrained", fields["constrained"][1])
                if a == b:
                    raise ValueError("constrained pair needs two different axes")
                centers = []
                for tok in fields["centers"][1]:
                    x, y = tok.split(",")
                    centers.append((_parse_fraction(x), _parse_fraction(y)))
                eps = _parse_fraction(fields["epsilon"][1][0])
                chart = ChartSpec(
                    name, action, "ball", (a, b), tuple(centers), eps, covering
                )
            elif kind == "complement":
                refs = tuple(fields["of"][1])
                references.append((fields["of"][0], name, refs))
                shrink = _parse_fraction(fields.get("shrink", (start, ["1/2"]))[1][0])
                chart = ChartSpec(
                    name, action, "complement", covering=covering,
                    complement_of=refs, shrink=shrink,
                )
            elif kind == "full":
                chart = ChartSpec(name, action, "full", covering=covering)
            else:
                fail(start, "chart", f"unknown chart kind {kind!r}")
                return
        except (KeyError, ValueError) as exc:
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            fail(start, f"chart {name}", reason)
            return
        atlas.append(chart)
        if "psi" in multi:
            table = {}
            for ln, toks in multi["psi"]:
                try:
                    signs = _parse_signs(toks[1:])
                    if len(signs) != action.rank:
                        raise ValueError(f"expected {action.rank} signs, one per acting direction")
                    if toks[0] in table:
                        raise ValueError(f"repeated psi name {toks[0]!r}")
                    table[toks[0]] = signs
                    words.append((ln, "psi", toks[0]))
                except (IndexError, ValueError) as exc:
                    fail(ln, "psi", str(exc))
            psi[name] = table

    def _close_expected(multi) -> None:
        for key, rows in multi.items():
            for ln, toks in rows:
                try:
                    if key == "fixed_circles":
                        circles = expected.setdefault("fixed_circles", {})
                        if toks[0] in circles:
                            raise ValueError(f"repeated fixed_circles name {toks[0]!r}")
                        circles[toks[0]] = int(toks[1])
                        words.append((ln, "expected", toks[0]))
                    elif key in _EXPECTED_INTS:
                        expected[key] = int(toks[0])
                    else:
                        word = toks[0].lower() if key == "abelian" else toks[0]
                        if word not in _EXPECTED_WORDS[key]:
                            raise ValueError(f"{key} must be {' or '.join(_EXPECTED_WORDS[key])}, got {toks[0]!r}")
                        expected[key] = word == "true" if key == "abelian" else word
                except (IndexError, ValueError) as exc:
                    fail(ln, "expected", str(exc))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            close_section()
            body = []
            parts = line[1:-1].split()
            if len(parts) in (1, 2):
                kind, name = parts[0], parts[1] if len(parts) == 2 else None
                section = (kind, name, lineno)
                if kind in ("gluing", "expected"):
                    if name is not None:
                        fail(lineno, "section", f"[{kind}] takes no name, got {name!r}")
                    if kind in headers:
                        fail(lineno, "section", f"repeated section [{kind}]")
                    headers.add(kind)
                elif kind in ("generator", "chart") and name is None:
                    # Its lines are still read for their own errors.
                    fail(lineno, "section", f"[{kind}] needs a name")
                elif kind in ("generator", "chart"):
                    if (kind, name) in headers:
                        fail(lineno, "section", f"repeated {kind} name {name!r}")
                    if kind == "generator" and (name == "e" or "*" in name):
                        why = "is reserved for the identity" if name == "e" else "contains '*', the word product"
                        fail(lineno, "section", f"generator name {name!r} {why}")
                    headers.add((kind, name))
            else:
                fail(lineno, "section", f"malformed section header {line!r}")
                section = None
            continue
        toks = line.split()
        if section is None:
            if toks[0] == "version":
                try:
                    version = int(toks[1])
                    if version not in SUPPORTED_VERSIONS:
                        fail(lineno, "version", f"unknown version {version}")
                except (IndexError, ValueError):
                    fail(lineno, "version", "version must be an integer")
            elif toks[0] == "dimension":
                try:
                    dimension = int(toks[1])
                    if dimension < 1:
                        raise ValueError
                except (IndexError, ValueError):
                    fail(lineno, "dimension", "dimension must be a positive integer")
            else:
                fail(lineno, toks[0], "unknown top-level key")
        else:
            body.append((lineno, toks))
    close_section()

    # A ball chart rejected for its own lines is still declared, so it is no error here.
    for ln, name, refs in references:
        unknown = [r for r in refs if chart_kinds.get(r) != "ball"]
        if unknown:
            fail(ln, f"chart {name}", f"of names no ball chart of the atlas: {', '.join(unknown)}")
    # A word is e or a *-product of declared generator names; a generator
    # rejected for its own lines is still declared.
    declared = {"e"} | {h[1] for h in headers if isinstance(h, tuple) and h[0] == "generator"}
    for ln, fld, word in words:
        unknown = [g for g in word.split("*") if g not in declared]
        if unknown:
            fail(ln, fld, f"unknown generator {unknown[0]!r} in {word!r}")

    if version is None:
        errors.insert(0, (1, "version", "missing version line"))
    if dimension is None:
        errors.insert(0, (1, "dimension", "missing dimension line"))
    if not generators and not errors:
        errors.append((1, "generator", "at least one generator required"))
    if errors:
        raise SpecParseError(errors)
    return ConstructionSpec(
        version=version,
        dimension=dimension,
        generator_names=generator_names,
        generators=generators,
        gluing=gluing,
        atlas=atlas,
        psi=psi,
        expected=expected,
        source=source,
    )


def parse_construction(path) -> ConstructionSpec:
    """Parse and validate a construction spec file.

    The spec's source is the file name, so a report does not depend on the
    directory the file was named from.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return parse_construction_text(fh.read(), source=Path(path).name)
