"""Versioned, line-oriented construction-spec files.

The format keeps every exact quantity as an integer or "p/q" rational
string; floating point appears only in the gluing block (scan radii and
tolerances).  Every line is read once, by the reader that the `_KEYS`
table gives its key, and parsing collects *all* errors with line numbers
before failing: each field that fails to read reports on its own line, a
rule that ties a line to other lines (a `psi` or `fixed_circles` name, a
complement's `of`) on that line, and a rule between the fields of one
section on its header line, so a bad file reports everything wrong with
it at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .curvature import _require_geometric, eh_profile
from .fstructure import COVERINGS, ChartSpec, TorusActionSymbol
from .torus import AffineIsometry

SUPPORTED_VERSIONS = (1,)
MAX_ANNULUS_GRID = 2**20  # one scan pass at this size: ~1.3 s, ~275 MiB (2-core Xeon VM)
# The [expected] spin word of each spin verdict.
SPIN_WORDS = {"OBSTRUCTED": "nonspin", "LIFTABLE": "no-obstruction"}


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


def _fraction(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {tok!r}") from None
    except ValueError:
        raise ValueError(f"expected a rational p/q, got {tok!r}") from None


def _cast(cast, what):
    """A parser of one token by cast whose error names what it expected."""
    def parse(tok):
        try:
            return cast(tok)
        except ValueError:
            raise ValueError(f"expected {what}, got {tok!r}") from None
    return parse


_int, _float = _cast(int, "an integer"), _cast(float, "a number")


def _sign(tok: str) -> int:
    if tok not in ("+", "+1", "1", "-", "-1"):
        raise ValueError(f"expected a sign, got {tok!r}")
    return -1 if tok[0] == "-" else 1


# A reader maps (key, the tokens after it, the dimension or None while it is
# unknown) to the key's value, or raises ValueError with the line's error.
# _one makes the reader of a key that takes exactly one value from a parser
# of that value, which maps (key, token) to the value.
def _one(parse):
    def read(key, toks, n):
        if len(toks) != 1:
            raise ValueError(f"{key} takes one value, got {len(toks)}" if toks else f"{key} needs a value")
        return parse(key, toks[0])
    return read


def _number(cast, what, ok=lambda value: True):
    def parse(key, tok):
        try:
            if ok(value := cast(tok)):
                return value
        except ValueError:
            pass
        raise ValueError(f"{key} must be {what}")
    return parse


def _choice(*words, fold=str):
    def parse(key, tok):
        if fold(tok) not in words:
            raise ValueError(f"{key} must be {', '.join(words[:-1])} or {words[-1]}, got {tok!r}")
        return fold(tok)
    return parse


def _entries(parse, what="entries"):
    """n values, each read by parse (any number of them while n is unknown)."""
    def read(key, toks, n):
        values = tuple(map(parse, toks))
        if n is not None and len(values) != n:
            raise ValueError(f"expected {n} {what}")
        return values
    return read


_INTEGER = _number(int, "an integer")


def _version(key, tok):
    version = _INTEGER(key, tok)
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"unknown version {version}")
    return version


def _gluing_values(key, toks, n):
    """The domains the curvature stage needs, so that a bad block is an input error."""
    values = [_float(t) for t in toks]
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
    elif not values or not all(lo < r < hi for r in values):
        raise ValueError(f"at least one radius, each in the open domain ({lo}, {hi}) of the instanton profile")
    return values


def _axes(key, toks, n):
    axes = tuple(map(_int, toks))
    if n is not None and not all(1 <= a <= n for a in axes):
        raise ValueError(f"{key} axes must lie in 1..{n}")
    return axes


def _constrained(key, toks, n):
    if len(toks) != 2:
        raise ValueError(f"constrained takes two axes, got {len(toks)}")
    a, b = _axes(key, toks, n)
    if a == b:
        raise ValueError("constrained pair needs two different axes")
    return a, b


def _centers(key, toks, n):
    for tok in toks:
        if tok.count(",") != 1:
            raise ValueError(f"centers must be x,y pairs, got {tok!r}")
    return tuple(tuple(map(_fraction, tok.split(","))) for tok in toks)


def _psi(key, toks, n):
    if not toks:
        raise ValueError("psi needs an element name")
    return toks[0], tuple(map(_sign, toks[1:]))


def _fixed_circles(key, toks, n):
    if len(toks) != 2:
        raise ValueError(f"fixed_circles takes a name and a count, got {len(toks)}")
    return toks[0], _INTEGER("fixed_circles count", toks[1])


_FRACTION = _one(lambda key, tok: _fraction(tok))
_ABELIAN = _choice("true", "false", fold=str.lower)
# The keys each chart kind takes: component_signs and psi on every kind,
# because the F-structure rows report on them.
_ANY_CHART = {"kind", "action", "component_signs", "covering", "psi"}
_CHART_KEYS = {"ball": _ANY_CHART | {"constrained", "centers", "epsilon"},
               "complement": _ANY_CHART | {"of", "shrink"}, "full": _ANY_CHART}
_CHART_NEEDS = {"ball": ("constrained", "centers", "epsilon"), "complement": ("of",), "full": ()}
# The reader of every key of each section kind; "top-level" is the lines
# before the first section.  A row key takes one line per row, any other
# key one line.
_KEYS = {
    "top-level": {
        "version": _one(_version), "dimension": _one(_number(int, "a positive integer", lambda v: v >= 1)),
    },
    "generator": {
        "diag": _entries(_int, "diagonal entries"), "row": _entries(_int), "translation": _entries(_fraction),
    },
    "gluing": {
        **dict.fromkeys(("d_values", "decay_radii", "ricci_flat_radii"), _gluing_values),
        "annulus_grid": _one(_number(int, f"an integer in 2..{MAX_ANNULUS_GRID}",
                                     lambda v: 2 <= v <= MAX_ANNULUS_GRID)),
        "ricci_flat_tol": _one(_number(float, "a positive number", lambda v: math.isfinite(v) and v > 0)),
    },
    "chart": {
        "kind": _one(_choice(*_CHART_KEYS)), "constrained": _constrained, "centers": _centers,
        "epsilon": _FRACTION, "action": _axes, "component_signs": lambda key, toks, n: tuple(map(_sign, toks)),
        "covering": _one(_choice(*COVERINGS)), "of": lambda key, toks, n: tuple(toks), "shrink": _FRACTION,
        "psi": _psi,
    },
    "expected": {
        **dict.fromkeys(("orbits", "half_orbits", "b2_resolved", "b3_resolved", "f_rank"), _one(_INTEGER)),
        "abelian": _one(lambda key, tok: _ABELIAN(key, tok) == "true"),
        "spin": _one(_choice(*SPIN_WORDS.values())), "pi1": _one(_choice("PASS", "FAIL")),
        "fixed_circles": _fixed_circles,
    },
}
_ROWS = {"row", "psi", "fixed_circles"}


def read_fields(kind: str, body, n: int | None, errors: list):
    """Read the (line, key, *tokens) lines of a section through its key table.

    An unknown key, a repeat of a key that is not a row key, and a value
    its reader rejects are each an error on their line.  Returns each key's
    (line, value), a list of them for a row key, and the set of keys whose
    value failed to read.
    """
    readers, fields, failed = _KEYS[kind], {}, set()
    for ln, key, *toks in body:
        if key not in readers:
            errors.append((ln, kind, f"unknown {kind} field {key!r}"))
        elif key not in _ROWS and (key in fields or key in failed):
            errors.append((ln, key, f"repeated key {key!r}" + ("" if kind == "top-level" else f" in [{kind}]")))
        else:
            try:
                value = readers[key](key, toks, n)
            except ValueError as exc:
                # An [expected] value reports under "expected", as the block's rows do.
                errors.append((ln, "expected" if kind == "expected" else key, str(exc)))
                failed.add(key)
                continue
            if key in _ROWS:
                fields.setdefault(key, []).append((ln, value))
            else:
                fields[key] = (ln, value)
    return fields, failed


def _section(header: str, start: int, headers: set, errors: list):
    """The (kind, name) of a section header; kind is None when no table reads its lines."""
    parts = header[1:-1].split()
    if len(parts) not in (1, 2):
        errors.append((start, "section", f"malformed section header {header!r}"))
        return None, None
    kind, name = (parts + [None])[:2]
    if kind not in _KEYS or kind == "top-level":
        errors.append((start, "section", f"unknown section kind {kind!r}"))
        return None, None
    if kind in ("gluing", "expected"):
        if name is not None:
            errors.append((start, "section", f"[{kind}] takes no name, got {name!r}"))
        if kind in headers:
            errors.append((start, "section", f"repeated section [{kind}]"))
        headers.add(kind)
    elif name is None:  # its lines are still read for their own errors
        errors.append((start, "section", f"[{kind}] needs a name"))
    else:
        if (kind, name) in headers:
            errors.append((start, "section", f"repeated {kind} name {name!r}"))
        if kind == "generator" and (name == "e" or "*" in name):
            why = "is reserved for the identity" if name == "e" else "contains '*', the word product"
            errors.append((start, "section", f"generator name {name!r} {why}"))
        headers.add((kind, name))
    return kind, name


def _generator(start, fields, failed, n, errors) -> AffineIsometry | None:
    """The isometry of a [generator] section, or None after an error."""
    given = fields.keys() | failed
    if {"diag", "row"} <= given:
        return errors.append((start, "generator", "generator takes a 'diag' or 'row' linear part, not both"))
    if not {"diag", "row"} & given:
        return errors.append((start, "generator", "generator needs a 'diag' or 'row' linear part"))
    if "translation" not in given:
        return errors.append((start, "translation", "generator needs a translation line"))
    if failed or n is None:  # a field that failed to read, or the dimension, has its error already
        return None
    if "diag" in fields:
        linear = [[s if i == j else 0 for j in range(n)] for i, s in enumerate(fields["diag"][1])]
    else:
        linear = [row for _, row in fields["row"]]
        if len(linear) != n:
            return errors.append((start, "row", f"expected {n} rows, got {len(linear)}"))
    try:
        return AffineIsometry(tuple(map(tuple, linear)), fields["translation"][1])
    except ValueError as exc:
        errors.append((start, "generator", str(exc)))


def _chart(name, start, kind, fields, failed, errors) -> ChartSpec | None:
    """The chart of a [chart] section of a known kind, or None after an error."""
    wrong = [key for key in fields if key not in _CHART_KEYS[kind]]
    for key in wrong:
        errors.append((fields[key][0], key, f"a {kind} chart takes no {key!r}"))
    missing = [key for key in _CHART_NEEDS[kind] if key not in fields and key not in failed]
    for key in missing:
        errors.append((start, f"chart {name}", f"{kind} chart {name} has no {key} line"))
    if wrong or missing or failed - {"psi"}:
        return None
    given = {key: entry[1] for key, entry in fields.items() if key not in _ROWS}
    try:
        action = TorusActionSymbol(given.pop("action", ()), given.pop("component_signs", None))
        return ChartSpec(name, action, kind, complement_of=given.pop("of", ()), **given)
    except ValueError as exc:
        errors.append((start, f"chart {name}", str(exc)))


def _by_name(rows, fld, what, errors, words) -> dict:
    """Each row's value under its element word; a repeated word is an error on its row."""
    table = {}
    for ln, (word, value) in rows:
        if word in table:
            errors.append((ln, fld, f"repeated {what} name {word!r}"))
        else:
            table[word] = value
            words.append((ln, fld, word))
    return table


def parse_construction_text(text: str, source: str = "<memory>") -> ConstructionSpec:
    errors: list[tuple[int, str, str]] = []
    sections: list[tuple[str | None, int, list]] = [(None, 1, [])]  # (header, line, [(line, key, *tokens)])
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            sections.append((line, lineno, []))
        elif line:
            sections[-1][2].append((lineno, *line.split()))

    top, unread = read_fields("top-level", sections[0][2], None, errors)
    version, n = (top[key][1] if key in top else None for key in ("version", "dimension"))
    spec = ConstructionSpec(version, n, [], [], source=source)  # n is None after a bad dimension, reported once
    references: list[tuple[int, str, tuple[str, ...]]] = []  # complement charts' `of` lines
    words: list[tuple[int, str, str]] = []  # (line, field, element word) of psi and fixed_circles rows
    chart_kinds: dict[str, str | None] = {}  # kind of every [chart] section, None when it failed to read
    headers: set = set()  # "gluing", "expected" and (kind, name) of the other sections read so far
    for header, start, body in sections[1:]:
        kind, name = _section(header, start, headers, errors)
        if kind is None:
            continue
        fields, failed = read_fields(kind, body, n, errors)
        if kind == "generator":
            generator = _generator(start, fields, failed, n, errors)
            if generator is not None:
                spec.generator_names.append(name)
                spec.generators.append(generator)
        elif kind == "gluing":
            spec.gluing = GluingParams(**{key: value for key, (_, value) in fields.items()})
        elif kind == "chart":
            chart_kind = None if "kind" in failed else fields.pop("kind", (start, "ball"))[1]
            chart_kinds[name] = chart_kind
            if chart_kind == "complement" and "of" in fields:
                references.append((fields["of"][0], name, fields["of"][1]))
            chart = None if chart_kind is None else _chart(name, start, chart_kind, fields, failed, errors)
            if chart is not None:
                spec.atlas.append(chart)
                for ln, (_, signs) in fields.get("psi", []):
                    if len(signs) != chart.action.rank:
                        errors.append((ln, "psi", f"expected {chart.action.rank} signs, one per acting direction"))
                if "psi" in fields:
                    spec.psi[name] = _by_name(fields["psi"], "psi", "psi", errors, words)
        else:
            if "fixed_circles" in fields:
                circles = fields.pop("fixed_circles")
                spec.expected["fixed_circles"] = _by_name(circles, "expected", "fixed_circles", errors, words)
            spec.expected.update((key, value) for key, (_, value) in fields.items())

    # A ball chart rejected for its own lines is still declared, and a chart
    # whose kind failed to read may be one, so neither is an error here.
    for ln, name, refs in references:
        unknown = [r for r in refs if chart_kinds.get(r, "") not in ("ball", None)]
        if unknown:
            errors.append((ln, f"chart {name}", f"of names no ball chart of the atlas: {', '.join(unknown)}"))
    # A word is e or a *-product of declared generator names; a generator
    # rejected for its own lines is still declared.
    declared = {"e"} | {h[1] for h in headers if isinstance(h, tuple) and h[0] == "generator"}
    for ln, fld, word in words:
        unknown = [g for g in word.split("*") if g not in declared]
        if unknown:
            errors.append((ln, fld, f"unknown generator {unknown[0]!r} in {word!r}"))

    for key in ("version", "dimension"):
        if key not in top and key not in unread:
            errors.insert(0, (1, key, f"missing {key} line"))
    if not spec.generators and not errors:
        errors.append((1, "generator", "at least one generator required"))
    if errors:
        raise SpecParseError(errors)
    return spec


def parse_construction(path) -> ConstructionSpec:
    """Parse and validate a construction spec file.

    The spec's source is the file name, so a report does not depend on the
    directory the file was named from.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return parse_construction_text(fh.read(), source=Path(path).name)
