"""Exact verification of local torus-action (F-structure) data.

Charts are tubular regions of the torus cut out by a distance constraint
on one coordinate pair, plus the complement chart of their shrunken union
and an optional whole-torus chart.  Actions are formal coordinate
translations; every check here is a rational/symbolic identity, so a PASS
is a machine-checked statement, never a sampled approximation.  They run on
integer numerators: a chart's centers over one denominator, translations over
a multiple of it, and distances compared with the denominators cleared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import lcm

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
    covering: str = "trivial"  # "trivial" or "group"
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
        if atlas is None:
            return CheckResult(label, False, "complement chart needs its atlas context")
        by_name = {c.name: c for c in atlas}
        for ref in chart.complement_of:
            sub = check_invariance(by_name[ref], g)
            if not sub.passed:
                return CheckResult(label, False, f"removed chart {ref} not invariant")
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
    if chart.kind == "full":
        return CheckResult(label, True)
    if chart.kind == "ball":
        bad = [i for i in action.directions if i in chart.constrained]
        if bad:
            return CheckResult(
                label, False, f"translation along x{bad[0]} moves the constrained coordinate off the centers"
            )
        return CheckResult(label, True)
    by_name = {c.name: c for c in atlas or []}
    for ref in chart.complement_of:
        sub = by_name.get(ref)
        if sub is None:
            return CheckResult(label, False, f"unknown removed chart {ref}")
        bad = [i for i in action.directions if i in sub.constrained]
        if bad:
            return CheckResult(label, False, f"translation along x{bad[0]} moves removed chart {ref}")
    return CheckResult(label, True)


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
    checked separately by check_covariance.
    """
    rank = len(next(iter(generator_signs.values())))
    signs: dict[int, tuple[int, ...]] = {0: tuple([1] * rank)}
    gen_index = {name: i for i, name in enumerate(group.names)}
    missing = [n for n in generator_signs if n not in gen_index]
    if missing:
        raise ValueError(f"rule names unknown generators: {missing}")
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for name, gsigns in generator_signs.items():
                j = group.mul(i, gen_index[name])
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


def actions_commute(a: TorusActionSymbol, b: TorusActionSymbol) -> bool:
    """Formal translations always commute; kept as an explicit identity check.

    Composing x -> x + s e_i and x -> x + t e_j in both orders gives the
    same affine map with formal parameters, for any axes i, j.
    """
    # (x + s e_i) + t e_j == (x + t e_j) + s e_i as formal sums.
    return True


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
    shrunken ball sits inside its open ball, i.e. shrink < 1 with matching
    centers.  A full chart covers outright.
    """
    if any(c.kind == "full" for c in atlas):
        return CheckResult("cover", True, "whole-torus chart present")
    comps = [c for c in atlas if c.kind == "complement"]
    if not comps:
        return CheckResult("cover", False, "no complement chart and no full chart")
    names = {c.name for c in atlas if c.kind == "ball"}
    for comp in comps:
        missing = [n for n in comp.complement_of if n not in names]
        if missing:
            return CheckResult("cover", False, f"complement references unknown charts {missing}")
        if not comp.shrink < 1:
            return CheckResult("cover", False, "shrunken closed balls must sit inside the open balls")
    covered = set().union(*(set(c.complement_of) for c in comps))
    uncovered = names - covered
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
    center is inside.
    """
    label = f"free-action[{chart.name}]"
    if chart.covering != "group":
        return CheckResult(label, True, "trivial covering")
    by_name = {c.name: c for c in atlas}
    tubes = []  # per removed chart: its pair, centers and denominator, and the squared bound p/q
    for w in (by_name[n] for n in chart.complement_of) if chart.kind == "complement" else ():
        bound = (w.epsilon * chart.shrink) ** 2
        tubes.append((w.constrained, w.center_nums, w.center_den, bound.numerator, bound.denominator))

    @cache  # each component is tested once
    def inside_removed(comp) -> bool:
        for (a, b), centers, den, p, q in tubes:
            if any(dv[a - 1] != 0 or dv[b - 1] != 0 for dv in comp.directions):
                continue  # component sweeps the pair plane; not contained
            m = lcm(comp.q, den)
            s, t, h, bound = m // comp.q, m // den, m // 2, p * m * m
            cx, cy = comp.w[a - 1] * s + h, comp.w[b - 1] * s + h
            for x, y in centers:  # (dx² + dy²) / m² <= p/q, each d folded into [-m/2, m/2]
                if (((cx - x * t) % m - h) ** 2 + ((cy - y * t) % m - h) ** 2) * q <= bound:
                    return True
        return False

    for gi in range(1, group.order):
        for comp in group.fixed_loci[gi]:
            if chart.kind == "full":
                return CheckResult(label, False, f"{group.names[gi]} has fixed points")
            if not inside_removed(comp):
                return CheckResult(
                    label,
                    False,
                    f"fixed component of {group.names[gi]} at {tuple(str(x) for x in comp.basepoint)} "
                    "meets the chart",
                )
    return CheckResult(label, True, "group acts freely on the chart")


def verify_f_structure(
    atlas: list[ChartSpec],
    group: GroupTable,
    rules: dict[str, CovarianceRule] | None = None,
) -> FStructureReport:
    """Run every F-structure condition on the atlas, exactly.

    Conditions: (1) cover, (2) covering data well-formed (declared group
    coverings act freely), (3) per-chart invariance and covariance,
    (4) lifted actions commute on overlaps.  Also reported: ball-chart
    disjointness, surgery-compatibility flags, the polarized flag (all
    local-freeness checks pass) and the rank (minimum orbit dimension).
    Invariance under the generators is invariance under the group, and the
    generators come first in index order, so the invariance row tests the
    generators only and names the same first failing element.
    """
    if not atlas:
        raise ValueError("empty atlas")
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
    for c1, c2 in meeting:
        ok = actions_commute(c1.action, c2.action)
        checks.append(
            CheckResult(
                f"overlap[{c1.name}&{c2.name}]",
                ok,
                "lifted translation actions commute" if ok else "actions do not commute",
            )
        )

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
        clash = [i for i in chart.action.directions if i in (chart.constrained or ())]
        checks.append(
            CheckResult(
                f"surgery-compatibility[{chart.name}]",
                not clash,
                "acting coordinates disjoint from the constrained pair"
                if not clash
                else f"action moves constrained coordinate x{clash[0]}",
            )
        )
    return report
