"""Exact verification of local torus-action (F-structure) data.

Charts are tubular regions of the torus cut out by a distance constraint
on one coordinate pair, plus the complement chart of their shrunken union
and an optional whole-torus chart.  Actions are formal coordinate
translations; every check here is a rational/symbolic identity, so a PASS
is a machine-checked statement, never a sampled approximation (the overlap
rows are reported, not checked).  They run on integer numerators: a chart's
centers over one denominator, translations over a multiple of it, and
distances compared with the denominators cleared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

# fixed_locus stays bound here for perfbench/tracing.py, which wraps it;
# the checks read each element's fixed loci from GroupTable.fixed_loci.
from .torus import AffineIsometry, GroupTable, fixed_locus  # noqa: F401


@dataclass(frozen=True)
class TorusActionSymbol:
    """Formal torus action by translations x -> x + theta_j e_{i_j}.

    directions hold 1-based coordinate indices.  component_signs, when
    given, attach one sign per chart component to a rank-1 action (the
    action runs with that orientation on that component).
    """

    directions: tuple[int, ...]
    component_signs: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(set(self.directions)) != len(self.directions):
            raise ValueError("action directions must be distinct")
        if self.component_signs is not None and len(self.directions) != 1:
            raise ValueError("component signs only make sense for circle actions")

    @property
    def rank(self) -> int:
        return len(self.directions)


COVERINGS = ("trivial", "group")


@dataclass(frozen=True)
class ChartSpec:
    """One chart of the atlas.

    kind "ball": points with ||(x_a, x_b) - center|| < epsilon for some
    center; kind "complement": the complement of the closed shrunken union
    of the named ball charts; kind "full": the whole torus.  Centers are
    torus points, kept reduced mod 1; center_nums holds them as numerator
    pairs over center_den, the least common denominator.
    """

    name: str
    action: TorusActionSymbol
    kind: str = "ball"
    constrained: tuple[int, int] | None = None
    centers: tuple[tuple[Fraction, Fraction], ...] = ()
    epsilon: Fraction = Fraction(0)
    covering: str = "trivial"  # one of COVERINGS
    complement_of: tuple[str, ...] = ()
    shrink: Fraction = Fraction(1, 2)
    center_den: int = field(init=False, compare=False, repr=False)
    center_nums: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        centers = tuple((x % 1, y % 1) for x, y in self.centers)
        den = lcm(1, *(x.denominator for c in centers for x in c))
        nums = tuple(tuple(x.numerator * (den // x.denominator) for x in c) for c in centers)
        if len(set(nums)) != len(nums):
            raise ValueError(f"chart {self.name}: centers repeat mod 1")
        if self.covering not in COVERINGS:
            raise ValueError(f"chart {self.name}: covering must be trivial or group, got {self.covering!r}")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "center_den", den)
        object.__setattr__(self, "center_nums", nums)
        if self.kind == "ball":
            if self.constrained is None or not self.centers:
                raise ValueError(f"ball chart {self.name} needs a constrained pair and centers")
            if not (0 < self.epsilon < Fraction(1, 100)):
                raise ValueError(f"chart {self.name}: epsilon must lie in (0, 1/100)")
        elif self.kind == "complement":
            if not self.complement_of:
                raise ValueError(f"complement chart {self.name} must name the charts it avoids")
            if not (0 < self.shrink < 1):
                raise ValueError(f"chart {self.name}: shrink factor must lie in (0, 1)")
        elif self.kind != "full":
            raise ValueError(f"unknown chart kind {self.kind!r}")


@dataclass(frozen=True)
class CovarianceRule:
    """Signed diagonal action of each group element on the torus factors."""

    signs: dict[int, tuple[int, ...]]  # group element index -> per-factor signs


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _axis_sign(g: AffineIsometry, axis: int) -> int | None:
    """Sign s with L_g e_axis = s e_axis, or None when the axis moves."""
    # Column axis holds its one nonzero entry in the row that reads it.
    return g.signs[axis - 1] if g.perm[axis - 1] == axis - 1 else None


def _pair_images(g: AffineIsometry, chart: ChartSpec):
    """(m, centers, images): the chart's centers and their images under g as
    numerator pairs over one denominator m, or None if g moves the pair plane
    (if both pair rows read from the plane, no other row does)."""
    a, b = chart.constrained
    j0, j1 = g.perm[a - 1] + 1, g.perm[b - 1] + 1
    if j0 not in (a, b) or j1 not in (a, b):
        return None
    m = lcm(chart.center_den, g.denom)
    k, kt = m // chart.center_den, m // g.denom
    centers = chart.center_nums if k == 1 else tuple((x * k, y * k) for x, y in chart.center_nums)
    i0, i1, s0, s1 = int(j0 == b), int(j1 == b), g.signs[a - 1], g.signs[b - 1]
    u0, u1 = g.nums[a - 1] * kt, g.nums[b - 1] * kt
    return m, centers, [((s0 * c[i0] + u0) % m, (s1 * c[i1] + u1) % m) for c in centers]


def _removed_balls(chart: ChartSpec, atlas) -> list[ChartSpec]:
    """The ball charts a complement removes, in `of` order; none for a ball or
    full chart.  ValueError, worded as the parser's, on any other `of` name."""
    if chart.kind != "complement":
        return []
    balls = {c.name: c for c in atlas or () if c.kind == "ball"}
    if unknown := [n for n in chart.complement_of if n not in balls]:
        raise ValueError(f"chart {chart.name}: of names no ball chart of the atlas: {', '.join(unknown)}")
    return [balls[n] for n in chart.complement_of]


def _moved_axis(action: TorusActionSymbol, balls: list[ChartSpec]) -> tuple[int, ChartSpec] | None:
    """(axis, ball): the first acting axis in a ball's constrained pair, or None."""
    return next(((i, w) for w in balls for i in action.directions if i in w.constrained), None)


def check_invariance(chart: ChartSpec, g: AffineIsometry, atlas=None) -> CheckResult:
    """Whether g maps the chart onto itself, as an exact statement.

    Ball charts: the linear part must preserve the constrained coordinate
    plane and the induced map must permute the center set (the radius is
    automatically preserved by an isometry).  Complement charts inherit
    invariance from the charts they avoid; full charts are always invariant.
    """
    label = f"invariance[{chart.name}]"
    if chart.kind == "full":
        return CheckResult(label, True, "whole torus")
    if chart.kind == "complement":
        for ball in _removed_balls(chart, atlas):
            if not check_invariance(ball, g).passed:
                return CheckResult(label, False, f"removed chart {ball.name} not invariant")
        return CheckResult(label, True, "complement of invariant charts")
    mapped = _pair_images(g, chart)
    if mapped is None:
        return CheckResult(label, False, "linear part does not preserve the constrained plane")
    m, centers, images = mapped
    if set(images) != set(centers):
        shown = [tuple(str(Fraction(x, m)) for x in img) for img in sorted(set(images))]
        return CheckResult(label, False, f"center set not preserved (image {shown})")
    return CheckResult(label, True)


def check_action_invariance(chart: ChartSpec, action: TorusActionSymbol, atlas=None) -> CheckResult:
    """Formal translations leave the chart invariant iff they avoid every
    constrained coordinate (their own, or of the removed charts for a
    complement)."""
    label = f"action-invariance[{chart.name}]"
    moved = _moved_axis(action, [chart] if chart.kind == "ball" else _removed_balls(chart, atlas))
    if moved is None:
        return CheckResult(label, True)
    axis, ball = moved
    where = "the constrained coordinate off the centers" if ball is chart else f"removed chart {ball.name}"
    return CheckResult(label, False, f"translation along x{axis} moves {where}")


def check_covariance(
    chart: ChartSpec,
    group: GroupTable,
    rule: CovarianceRule | None = None,
) -> CheckResult:
    """Condition: the group composes with the chart's torus action through
    a signed-diagonal automorphism, exactly.

    Group-covered charts check the declared homomorphism Psi against the
    identity g(x + theta e_i) = g(x) + Psi(g)_j theta e_i, which for
    affine maps is the exact condition L_g e_i = Psi(g)_j e_i.  Trivially
    covered circle actions with component signs check that every group
    element maps a component's signed action to the image component's.

    Each condition holds for a composite when it holds for the factors,
    so only the identity and the generators are tested; they come first in
    index order, so the first failing element is the one a test of every
    element would name.
    """
    label = f"covariance[{chart.name}]"
    action = chart.action
    tested = [0, *group.generator_indices]
    if chart.covering == "group":
        if rule is None:
            return CheckResult(label, False, "no covariance rule declared")
        homo_fail = _homomorphism_failure(group, rule)
        if homo_fail:
            return CheckResult(label, False, f"rule is not a homomorphism: {homo_fail}")
        for gi in tested:
            el = group.elements[gi]
            signs = rule.signs.get(gi)
            if signs is None or len(signs) != action.rank:
                return CheckResult(label, False, f"rule missing for element {group.names[gi]}")
            for j, axis in enumerate(action.directions):
                actual = _axis_sign(el, axis)
                if actual is None or actual != signs[j]:
                    return CheckResult(
                        label,
                        False,
                        f"{group.names[gi]} sends e{axis} to "
                        f"{'a moved axis' if actual is None else f'{actual}*e{axis}'}, rule says {signs[j]}",
                    )
        return CheckResult(label, True)
    # Trivial covering: component-signed equivariance.
    if action.component_signs is None:
        if action.rank == 0:
            return CheckResult(label, False, "empty action")
        # A global action must strictly commute with every element.
        for gi in tested:
            el = group.elements[gi]
            for axis in action.directions:
                if _axis_sign(el, axis) != 1:
                    return CheckResult(
                        label, False, f"{group.names[gi]} does not commute with the x{axis} action"
                    )
        return CheckResult(label, True)
    if chart.kind != "ball":
        return CheckResult(label, False, "component signs need a ball chart")
    if len(action.component_signs) != len(chart.centers):
        return CheckResult(label, False, "one sign per component required")
    axis, signs = action.directions[0], action.component_signs
    for gi in tested:
        el = group.elements[gi]
        eps = _axis_sign(el, axis)
        if eps is None:
            return CheckResult(label, False, f"{group.names[gi]} moves the acting axis e{axis}")
        # A moved pair plane sends no component to a component.
        _m, centers, images = _pair_images(el, chart) or (0, (), [None])
        index = {c: m for m, c in enumerate(centers)}
        for m, img in enumerate(images):
            if img not in index:
                return CheckResult(label, False, f"{group.names[gi]} does not permute the components")
            if eps * signs[m] != signs[index[img]]:
                return CheckResult(
                    label,
                    False,
                    f"component {tuple(str(x) for x in chart.centers[m])} under {group.names[gi]}: "
                    f"axis sign {eps} conflicts with the component signs",
                )
    return CheckResult(label, True)


def _homomorphism_failure(group: GroupTable, rule: CovarianceRule) -> str | None:
    """A witness that Psi is not a homomorphism into signed diagonals, or None.

    Psi(i)Psi(g) = Psi(i∘g) for every element i and g the identity or a
    generator makes Psi(e) the identity, forces equal lengths (following
    i's inverse along generators lands on e) and, by induction along the
    spanning tree, gives Psi(i)Psi(j) = Psi(i∘j) for all pairs.
    """
    for i in range(group.order):
        if i not in rule.signs:
            return f"no value on {group.names[i]}"
    for i in range(group.order):
        for j in [0, *group.generator_indices]:
            k = group.mul(i, j)
            prod = tuple(a * b for a, b in zip(rule.signs[i], rule.signs[j]))
            if prod != rule.signs[k]:
                return f"Psi({group.names[i]})Psi({group.names[j]}) != Psi({group.names[k]})"
    return None


def extend_rule(group: GroupTable, generator_signs: dict[str, tuple[int, ...]]) -> CovarianceRule:
    """Extend generator-level signs to the whole table along its words.

    The extension follows the group table's own construction (element =
    parent * generator); whether the result is a genuine homomorphism is
    checked separately by check_covariance.  A name is a word that
    group.word_index resolves, so a repeated or identity generator and any
    product of generators are accepted, and a value that disagrees with the
    one its element already has (the identity's, or another word's for the
    same element) raises ValueError.
    """
    rank = len(next(iter(generator_signs.values())))
    signs: dict[int, tuple[int, ...]] = {0: tuple([1] * rank)}
    index = {name: group.word_index(name) for name in generator_signs}
    missing = [n for n, i in index.items() if i is None]
    if missing:
        raise ValueError(f"rule names unknown generators: {missing}")
    frontier = []
    for name, gsigns in generator_signs.items():
        j = index[name]
        if j not in signs:
            signs[j] = gsigns
            frontier.append(j)
        elif signs[j] != gsigns:
            raise ValueError(f"rule gives {name} the value {gsigns}, but its element {group.names[j]} has {signs[j]}")
    while frontier:
        nxt = []
        for i in frontier:
            for name, gsigns in generator_signs.items():
                j = group.mul(i, index[name])
                if j not in signs:
                    signs[j] = tuple(a * b for a, b in zip(signs[i], gsigns))
                    nxt.append(j)
        frontier = nxt
    if len(signs) != group.order:
        raise ValueError("rule generators do not generate the group")
    return CovarianceRule(signs=signs)


def check_locally_free(action: TorusActionSymbol, chart: ChartSpec) -> tuple[CheckResult, int]:
    """Translation actions with a nonzero direction set are locally free;
    the orbit dimension is the rank of the direction set."""
    label = f"locally-free[{chart.name}]"
    dim = action.rank
    if dim == 0:
        return CheckResult(label, False, "rank-0 action has no positive-dimensional orbit"), 0
    return CheckResult(label, True, f"orbit dimension {dim}"), dim


def _overlap_nonempty(c1: ChartSpec, c2: ChartSpec) -> bool:
    """Whether two charts meet, decided exactly for two ball charts.

    A ball chart's tube constrains only its two coordinates, so two tubes
    meet iff some pair of centers, projected to the coordinates the two
    pairs share, are closer than the radius sum: in the plane when the
    pairs agree (in either order), in the one shared coordinate, or
    always when no coordinate is shared.
    """
    if c1.kind != "ball" or c2.kind != "ball":
        return True  # complement/full charts meet everything in our atlases
    shared = [a for a in c1.constrained if a in c2.constrained]
    if not shared:
        return True
    at1 = [c1.constrained.index(a) for a in shared]
    at2 = [c2.constrained.index(a) for a in shared]
    m = lcm(c1.center_den, c2.center_den)
    k1, k2, h = m // c1.center_den, m // c2.center_den, m // 2
    # m² times the squared distance: each difference folded into [-m/2, m/2].
    mind = min(
        sum(((p[i] * k1 - q[j] * k2 + h) % m - h) ** 2 for i, j in zip(at1, at2))
        for p in c1.center_nums
        for q in c2.center_nums
    )
    r = c1.epsilon + c2.epsilon  # mind / m² < r², cleared of denominators
    return mind * r.denominator**2 < r.numerator**2 * m * m


@dataclass
class FStructureReport:
    all_checks: list[CheckResult] = field(default_factory=list)  # in report order
    polarized: bool = False
    rank: int | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.all_checks)


def _check_cover(atlas: list[ChartSpec]) -> CheckResult:
    """The ball charts plus the complement chart exhaust the torus.

    By definition the complement chart is the complement of the closed
    shrunken ball union; the cover identity holds exactly iff every closed
    shrunken ball sits inside its open ball, i.e. shrink < 1 (as ChartSpec
    enforces) with matching centers.  A full chart covers outright.
    """
    if any(c.kind == "full" for c in atlas):
        return CheckResult("cover", True, "whole-torus chart present")
    if all(c.kind != "complement" for c in atlas):
        return CheckResult("cover", False, "no complement chart and no full chart")
    removed = {w.name for c in atlas for w in _removed_balls(c, atlas)}
    uncovered = {c.name for c in atlas if c.kind == "ball"} - removed
    if uncovered:
        return CheckResult("cover", False, f"ball charts {sorted(uncovered)} not accounted for")
    return CheckResult(
        "cover", True, "closed shrunken balls lie inside the open balls; complement fills the rest"
    )


def _check_free_action(chart: ChartSpec, group: GroupTable, atlas: list[ChartSpec]) -> CheckResult:
    """Declared group coverings must act freely on the chart.

    For complement charts: every fixed component of a non-identity element
    must lie inside some removed shrunken chart, verified exactly on
    integer numerators through the component's constrained-pair
    coordinates; a component at distance exactly epsilon·shrink from a
    center is inside.  The canonical basepoints of all non-identity
    elements' components, rows over 2N (N = group.denom), are tested in one
    array expression per removed chart, in int64 while its squared
    distances fit and on Python ints (object dtype) beyond.  The first
    failing row, in element and then basepoint order, is the one named.
    """
    label = f"free-action[{chart.name}]"
    if chart.covering != "group":
        return CheckResult(label, True, "trivial covering")
    tables = [(gi, t) for gi, t in enumerate(group.fixed_loci) if gi and t]
    if not tables:
        return CheckResult(label, True, "group acts freely on the chart")
    if chart.kind == "full":
        return CheckResult(label, False, f"{group.names[tables[0][0]]} has fixed points")
    m = 2 * group.denom
    points = np.concatenate([t.points for _, t in tables])
    inside = np.zeros(len(points), bool)
    for w in _removed_balls(chart, atlas):
        a, b = w.constrained
        # A component that sweeps the pair plane is not contained.
        flat = np.concatenate([
            np.array([all(dv[a - 1] == 0 == dv[b - 1] for dv in dirs) for dirs in t.lattices], bool)[t.lattice]
            for _, t in tables
        ])
        bound = (w.epsilon * chart.shrink) ** 2
        big = lcm(m, w.center_den)
        h, dtype = big // 2, np.int64 if big * big * bound.denominator < 2**63 else object
        pair = points[:, [a - 1, b - 1]].astype(dtype) * (big // m) + h
        centers = np.array(w.center_nums, dtype) * (big // w.center_den)
        # (dx² + dy²) / big² <= p/q, each difference folded into [-big/2, big/2].
        folded = (pair[:, None, :] - centers[None, :, :]) % big - h
        near = ((folded * folded).sum(axis=2) * bound.denominator <= bound.numerator * big * big).any(axis=1)
        inside |= flat & near
    if inside.all():
        return CheckResult(label, True, "group acts freely on the chart")
    row = int(np.argmin(inside))
    for gi, t in tables:
        if row < len(t):
            return CheckResult(
                label,
                False,
                f"fixed component of {group.names[gi]} at {tuple(str(x) for x in t[row].basepoint)} "
                "meets the chart",
            )
        row -= len(t)


def verify_f_structure(
    atlas: list[ChartSpec],
    group: GroupTable,
    rules: dict[str, CovarianceRule] | None = None,
) -> FStructureReport:
    """Run every F-structure condition on the atlas, exactly.

    Conditions: (1) cover, (2) covering data well-formed (declared group
    coverings act freely), (3) per-chart invariance and covariance.  Also
    reported: overlap rows, which check nothing (formal translations always
    commute), ball-chart disjointness, surgery-compatibility flags, the
    polarized flag (all local-freeness checks pass) and the rank (minimum
    orbit dimension).  Invariance under the generators is invariance under
    the group, and the generators come first in index order, so the
    invariance row tests the generators only and names the same first
    failing element.  An `of` name that is no ball chart of the atlas
    raises ValueError before any row is computed.
    """
    if not atlas:
        raise ValueError("empty atlas")
    for chart in atlas:
        _removed_balls(chart, atlas)
    rules = rules or {}
    report = FStructureReport()
    checks = report.all_checks

    for chart in atlas:
        for gi in group.generator_indices:
            res = check_invariance(chart, group.elements[gi], atlas)
            if not res.passed:
                res.name = f"invariance[{chart.name}/{group.names[gi]}]"
                checks.append(res)
                break
        else:
            checks.append(CheckResult(f"invariance[{chart.name}]", True))
        checks.append(check_action_invariance(chart, chart.action, atlas))
        checks.append(check_covariance(chart, group, rules.get(chart.name)))

    dims = []
    for chart in atlas:
        res, dim = check_locally_free(chart.action, chart)
        checks.append(res)
        if res.passed:
            dims.append(dim)
    report.polarized = len(dims) == len(atlas)
    report.rank = min(dims) if dims else None

    checks.append(_check_cover(atlas))
    checks.extend(_check_free_action(chart, group, atlas) for chart in atlas)

    meeting = [
        (c1, c2) for i, c1 in enumerate(atlas) for c2 in atlas[i + 1 :] if _overlap_nonempty(c1, c2)
    ]
    # Reported, not checked: formal translations commute; orbit inclusion is not tested yet.
    for c1, c2 in meeting:
        checks.append(CheckResult(f"overlap[{c1.name}&{c2.name}]", True, "lifted translation actions commute"))

    clash = next(((c1, c2) for c1, c2 in meeting if c1.kind == c2.kind == "ball"), None)
    checks.append(
        CheckResult(
            "disjointness",
            clash is None,
            "pairwise center distance exceeds the radius sum"
            if clash is None
            else f"{clash[0].name} and {clash[1].name} overlap",
        )
    )

    for chart in (c for c in atlas if c.kind == "ball"):
        moved = _moved_axis(chart.action, [chart])
        checks.append(
            CheckResult(
                f"surgery-compatibility[{chart.name}]",
                moved is None,
                "acting coordinates disjoint from the constrained pair"
                if moved is None
                else f"action moves constrained coordinate x{moved[0]}",
            )
        )
    return report
