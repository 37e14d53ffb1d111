import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import compose_products, diagonal, identity
from kummerlab import fstructure
from kummerlab.cli import bundled_examples
from kummerlab.fstructure import (
    ChartSpec,
    CheckResult,
    CovarianceRule,
    TorusActionSymbol,
    _axis_sign,
    _pair_images,
    check_action_invariance,
    check_covariance,
    check_invariance,
    check_locally_free,
    extend_rule,
    verify_f_structure,
    _overlap_nonempty,
)
from kummerlab.specfile import SpecParseError, parse_construction, parse_construction_text
from kummerlab.torus import AffineIsometry, GroupClosureError, generate_group

HALF = Fraction(1, 2)


def reference_torus_dist_sq(p, q) -> Fraction:
    """Squared flat-torus distance of two rational points, in Fractions."""
    return sum(min((a - b) % 1, (b - a) % 1) ** 2 for a, b in zip(p, q))


def atlas_by_name(spec):
    return {c.name: c for c in spec.atlas}


def rules_for(spec, group):
    return {name: extend_rule(group, table) for name, table in spec.psi.items()}


def test_ball_chart_invariance_under_group(spec_a, group_a):
    w_alpha = atlas_by_name(spec_a)["W_alpha"]
    for el in group_a.elements:
        assert check_invariance(w_alpha, el).passed


def test_complement_invariance_and_action(spec_a, group_a):
    charts = atlas_by_name(spec_a)
    v = charts["V"]
    for el in group_a.elements:
        assert check_invariance(v, el, spec_a.atlas).passed
    assert check_action_invariance(v, TorusActionSymbol((1, 4, 5)), spec_a.atlas).passed


def test_formal_translation_in_constrained_coordinate_fails(spec_a):
    w_alpha = atlas_by_name(spec_a)["W_alpha"]
    res = check_action_invariance(w_alpha, TorusActionSymbol((2,)))
    assert not res.passed
    assert "x2" in res.detail


def test_covariance_v_chart(spec_a, group_a):
    v = atlas_by_name(spec_a)["V"]
    rule = rules_for(spec_a, group_a)["V"]
    assert check_covariance(v, group_a, rule).passed


def test_covariance_component_signs(spec_a, group_a):
    w_alpha = atlas_by_name(spec_a)["W_alpha"]
    assert check_covariance(w_alpha, group_a).passed


def test_covariance_trivial_group_identity_rule():
    group = generate_group([identity(5)])
    chart = ChartSpec("T", TorusActionSymbol((1, 2, 3)), "full", covering="group")
    rule = CovarianceRule({0: (1, 1, 1)})
    assert check_covariance(chart, group, rule).passed


def test_covariance_non_homomorphism_reported(group_a):
    chart = ChartSpec("V", TorusActionSymbol((1,)), "full", covering="group")
    bad = {i: (1,) for i in range(group_a.order)}
    bad[1] = (-1,)  # alpha alone flipped: alpha*alpha = e breaks the product rule
    res = check_covariance(chart, group_a, CovarianceRule(bad))
    assert not res.passed
    assert "homomorphism" in res.detail


def test_locally_free_dimensions(spec_a):
    charts = atlas_by_name(spec_a)
    res, dim = check_locally_free(charts["W_alpha"].action, charts["W_alpha"])
    assert res.passed and dim == 1
    res, dim = check_locally_free(charts["V"].action, charts["V"])
    assert res.passed and dim == 3
    res, dim = check_locally_free(TorusActionSymbol(()), charts["W_alpha"])
    assert not res.passed and dim == 0


def rows_named(rep, prefix):
    """The report's rows whose names start with prefix, in report order."""
    return [c for c in rep.all_checks if c.name.startswith(prefix)]


def test_verify_first_atlas_passes(spec_a, group_a):
    rep = verify_f_structure(spec_a.atlas, group_a, rules_for(spec_a, group_a))
    assert rep.passed
    assert rep.polarized
    assert rep.rank == 1
    assert [c.passed for c in rows_named(rep, "cover")] == [True]
    assert [c.passed for c in rows_named(rep, "disjointness")] == [True]
    assert all(c.passed for c in rows_named(rep, "surgery-compatibility["))
    assert all(c.passed for c in rows_named(rep, "free-action["))


def test_verify_second_atlas_fails_only_covariance(spec_b, group_b):
    # Deliberate, documented defect: the alpha- and beta-circles share the
    # same constrained-pair centers but run along different axes, so the
    # W_ab chart cannot carry a covariant single-axis circle action.
    rep = verify_f_structure(spec_b.atlas, group_b, rules_for(spec_b, group_b))
    assert not rep.passed
    failing = [c.name for c in rep.all_checks if not c.passed]
    assert failing == ["covariance[W_ab]"]
    assert rep.polarized  # local freeness itself still holds
    assert rep.rank == 1


def test_whole_torus_chart_trivial_group():
    group = generate_group([identity(5)])
    chart = ChartSpec("T", TorusActionSymbol((1, 2, 3, 4, 5)), "full")
    rep = verify_f_structure([chart], group)
    assert rep.passed
    assert rep.rank == 5
    assert rep.polarized


def test_free_action_check_rejects_fixed_points_on_cover():
    half = HALF
    alpha = diagonal([1, -1, -1, -1, -1], [0, 0, 0, half, 0])
    group = generate_group([alpha], ["alpha"])
    chart = ChartSpec("T", TorusActionSymbol((1,)), "full", covering="group")
    rep = verify_f_structure([chart], group, {"T": extend_rule(group, {"alpha": (1,)})})
    failing = [c.name for c in rep.all_checks if not c.passed]
    assert any(name.startswith("free-action") for name in failing)


def test_disjointness_is_exact(spec_a, spec_b):
    for spec in (spec_a, spec_b):
        balls = [c for c in spec.atlas if c.kind == "ball"]
        for i, c1 in enumerate(balls):
            for c2 in balls[i + 1 :]:
                mind = min(
                    reference_torus_dist_sq(p, q) for p in c1.centers for q in c2.centers
                )
                assert mind > (c1.epsilon + c2.epsilon) ** 2


def test_surgery_flags(spec_a, spec_b):
    for spec in (spec_a, spec_b):
        for chart in spec.atlas:
            if chart.kind == "ball":
                assert not set(chart.action.directions) & set(chart.constrained)


def test_chart_centers_are_reduced_mod_one_and_distinct():
    def chart(*centers):
        return ChartSpec("W", TorusActionSymbol((1,)), "ball", (2, 3),
                         tuple(tuple(Fraction(x) for x in c) for c in centers), Fraction(1, 128))

    w = chart((0, 0), ("3/2", "1/2"), ("-1/4", "5/4"))
    assert w.centers == ((0, 0), (HALF, HALF), (Fraction(3, 4), Fraction(1, 4)))
    assert (w.center_den, w.center_nums) == (4, ((0, 0), (2, 2), (3, 1)))
    assert w == chart((0, 0), ("1/2", "1/2"), ("3/4", "1/4"))
    for centers in (((0, 0), (0, 0)), ((0, 0), (1, "-1"))):
        with pytest.raises(ValueError, match="centers repeat mod 1"):
            chart(*centers)


def test_center_set_failure_prints_the_image_as_rationals(group_a):
    beta = group_a.elements[group_a.names.index("beta")]  # (x2, x3) -> (1/2 - x2, -x3)
    w = ball((2, 3), (0, "1/4"), ("1/4", "1/2"))
    res = check_invariance(w, beta)
    assert not res.passed
    assert res.detail == "center set not preserved (image [('1/4', '1/2'), ('1/2', '3/4')])"


def test_chart_validation():
    with pytest.raises(ValueError, match="epsilon"):
        ChartSpec("W", TorusActionSymbol((1,)), "ball", (2, 3), ((Fraction(0), Fraction(0)),), Fraction(1, 10))
    with pytest.raises(ValueError, match="distinct"):
        TorusActionSymbol((1, 1))
    with pytest.raises(ValueError, match="circle"):
        TorusActionSymbol((1, 2), (1, -1))


def test_chart_covering_is_trivial_or_group():
    """Any other word used to count as a trivial covering."""
    for covering in ("bogus", "Group", ""):
        with pytest.raises(ValueError, match=f"covering must be trivial or group, got {covering!r}"):
            ChartSpec("T", TorusActionSymbol((1,)), "full", covering=covering)


def test_extend_rule_requires_generating_set(group_a):
    with pytest.raises(ValueError, match="generate"):
        extend_rule(group_a, {"alpha": (1,)})
    with pytest.raises(ValueError, match="unknown"):
        extend_rule(group_a, {"nope": (1,)})


def test_extend_rule_accepts_any_element_name(group_a):
    by_words = extend_rule(group_a, {"alpha*beta": (-1,), "beta": (1,), "gamma": (-1,)})
    by_generators = extend_rule(group_a, {"alpha": (-1,), "beta": (1,), "gamma": (-1,)})
    assert by_words == by_generators
    assert fstructure._homomorphism_failure(group_a, by_words) is None


def ball(pair, *centers):
    return ChartSpec(
        name=f"W{pair}",
        action=TorusActionSymbol((1,)),
        constrained=pair,
        centers=tuple(tuple(Fraction(x) for x in c) for c in centers),
        epsilon=Fraction(1, 128),
    )


def test_overlap_decided_exactly_across_planes():
    w = ball((3, 5), (0, "1/4"))
    # Same pair in either order: compare the centers after aligning coordinates.
    assert _overlap_nonempty(w, ball((5, 3), ("1/4", "1/128")))
    assert _overlap_nonempty(w, ball((3, 5), ("127/128", "1/4")))  # across the seam
    assert not _overlap_nonempty(w, ball((5, 3), (0, "1/4")))
    assert not _overlap_nonempty(w, ball((3, 5), ("1/64", "1/4")))  # tangent open tubes
    # One shared coordinate: only x3 constrains both tubes.
    assert _overlap_nonempty(w, ball((4, 3), ("1/2", "1/100")))
    assert not _overlap_nonempty(w, ball((3, 4), ("1/4", 0), ("3/4", "1/2")))
    assert not _overlap_nonempty(w, ball((3, 4), ("1/64", 0)))
    # No shared coordinate: the tubes always meet.
    assert _overlap_nonempty(w, ball((1, 2), ("1/2", "1/2")))


def test_four_chart_atlas_overlap_rows(spec_b_four_chart, group_b):
    rep = verify_f_structure(
        spec_b_four_chart.atlas, group_b, rules_for(spec_b_four_chart, group_b)
    )
    # W_a and W_b (on x3, x5) have x3 centers 1/4 away from W_c's (on x3, x4).
    assert [c.name for c in rows_named(rep, "overlap[")] == ["overlap[W_a&V]", "overlap[W_b&V]", "overlap[W_c&V]"]
    assert rep.passed


def named(chart, name):
    return dataclasses.replace(chart, name=name)


def test_disjointness_fails_iff_some_ball_pair_overlaps(group_a):
    # Tubes on disjoint coordinate pairs always meet.
    rep = verify_f_structure(
        [named(ball((2, 3), (0, 0)), "W1"), named(ball((4, 5), ("1/2", "1/2")), "W2")], group_a
    )
    [disjoint] = rows_named(rep, "disjointness")
    assert not disjoint.passed
    assert disjoint.detail == "W1 and W2 overlap"
    # Tangent open tubes do not meet: disjointness agrees with the overlap rows.
    w = ball((3, 5), (0, "1/4"))
    for other in (ball((3, 5), ("1/64", "1/4")), ball((5, 3), ("1/4", "1/128")), ball((3, 4), ("1/64", 0))):
        rep = verify_f_structure([named(w, "W1"), named(other, "W2")], group_a)
        [disjoint] = rows_named(rep, "disjointness")
        assert disjoint.passed == (not rows_named(rep, "overlap[")) == (not _overlap_nonempty(w, other))


# ---------------------------------------------------------------------------
# The signed-permutation helpers against the matrix scans they replaced.


def reference_axis_sign(g, axis):
    """Sign s with L_g e_axis = s e_axis, read off column axis, or None."""
    n = g.dim
    col = [g.linear[k][axis - 1] for k in range(n)]
    if col == [1 if k == axis - 1 else 0 for k in range(n)]:
        return 1
    if col == [-1 if k == axis - 1 else 0 for k in range(n)]:
        return -1
    return None


def reference_pair_image(g, pair, point):
    """Image of a pair point, scanning the rows; None if any row crosses the pair plane."""
    a, b = pair
    out = []
    for i in (a, b):
        row = g.linear[i - 1]
        j = next(k for k, v in enumerate(row) if v != 0)
        if j + 1 not in (a, b):
            return None
        src = point[0] if j + 1 == a else point[1]
        out.append((row[j] * src + g.translation[i - 1]) % 1)
    for i in range(g.dim):
        if i + 1 in (a, b):
            continue
        row = g.linear[i]
        j = next(k for k, v in enumerate(row) if v != 0)
        if j + 1 in (a, b):
            return None
    return (out[0], out[1])


def test_axis_sign_and_pair_image_match_matrix_scans():
    rng = random.Random(1618)
    outcomes = Counter()
    for _ in range(400):
        n = rng.randint(2, 6)
        perm = list(range(n))
        if rng.random() < 0.7:  # otherwise diagonal, so that many axes and planes stay put
            rng.shuffle(perm)
        linear = tuple(tuple(rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)) for i in range(n))
        g = AffineIsometry(linear, tuple(Fraction(rng.randrange(4), rng.choice((1, 2, 4, 3))) for _ in range(n)))
        for axis in range(1, n + 1):
            sign = _axis_sign(g, axis)
            assert sign == reference_axis_sign(g, axis)
            outcomes["axis", sign] += 1
        for pair in itertools.permutations(range(1, n + 1), 2):
            points = {(Fraction(rng.randrange(8), 8), Fraction(rng.randrange(6), 6)) for _ in range(3)}
            chart = ChartSpec("W", TorusActionSymbol((1,)), "ball", pair, tuple(points), Fraction(1, 128))
            mapped = _pair_images(g, chart)
            images = [reference_pair_image(g, pair, point) for point in chart.centers]
            if mapped is None:
                assert images == [None] * len(images)
            else:
                m, centers, got = mapped
                assert [tuple(Fraction(x, m) for x in c) for c in centers] == list(chart.centers)
                assert [tuple(Fraction(x, m) for x in img) for img in got] == images
            image = images[0]
            outcomes["pair", image is None, image is not None and image != chart.centers[0]] += 1
    assert set(outcomes) == {("axis", 1), ("axis", -1), ("axis", None), ("pair", True, False),
                             ("pair", False, False), ("pair", False, True)}


def reference_overlap(c1, c2) -> bool:
    """Whether two ball tubes meet, on Fractions: some pair of centers,
    projected to the shared coordinates, is closer than the radius sum."""
    shared = [a for a in c1.constrained if a in c2.constrained]
    if not shared:
        return True
    return any(
        reference_torus_dist_sq([p[c1.constrained.index(a)] for a in shared],
                                [q[c2.constrained.index(a)] for a in shared]) < (c1.epsilon + c2.epsilon) ** 2
        for p in c1.centers for q in c2.centers
    )


def test_overlap_on_integers_matches_fraction_reference():
    """Ball pairs on shared planes and axes, with centers on mixed grids, some
    of them at exactly the radius sum (tangent tubes do not meet)."""
    rng = random.Random(5077)
    outcomes = Counter()
    for _ in range(600):
        eps = [Fraction(rng.randint(1, 9), rng.choice((1000, 1024, 2187))) for _ in range(2)]
        pairs = [tuple(rng.sample(range(1, 5), 2)) for _ in range(2)]
        grid = [rng.choice((4, 6, 8, 12)) for _ in range(2)]
        first = [(Fraction(rng.randrange(grid[0]), grid[0]), Fraction(rng.randrange(grid[0]), grid[0]))
                 for _ in range(rng.randint(1, 3))]
        second = [(Fraction(rng.randrange(grid[1]), grid[1]), Fraction(rng.randrange(grid[1]), grid[1]))
                  for _ in range(rng.randint(0, 2))]
        # Put a center of the second tube exactly eps1 + eps2 or a hair less away in one coordinate.
        offset = (eps[0] + eps[1]) * rng.choice((1, Fraction(999, 1000)))
        shift = [first[0][pairs[0].index(a)] if a in pairs[0] else Fraction(rng.randrange(4), 4) for a in pairs[1]]
        shift[0] += offset
        second.append(tuple(shift))
        c1, c2 = (ChartSpec(f"W{k}", TorusActionSymbol((5,)), "ball", pairs[k], tuple(dict.fromkeys(cs)), eps[k])
                  for k, cs in enumerate((first, second)))
        got = _overlap_nonempty(c1, c2)
        assert got == reference_overlap(c1, c2)
        outcomes[len(set(c1.constrained) & set(c2.constrained)), got] += 1
    assert {(shared, met) for shared in (1, 2) for met in (True, False)} <= set(outcomes)


# ---------------------------------------------------------------------------
# Generator-only rows against the all-element loops they replaced.


def reference_homomorphism_failure(group, rule):
    for i in range(group.order):
        if i not in rule.signs:
            return f"no value on {group.names[i]}"
    product = compose_products(group.elements)
    for i in range(group.order):
        for j in range(group.order):
            k = product[i][j]
            if tuple(a * b for a, b in zip(rule.signs[i], rule.signs[j])) != rule.signs[k]:
                return f"Psi({group.names[i]})Psi({group.names[j]}) != Psi({group.names[k]})"
    return None


def reference_covariance(chart, group, rule):
    """Covariance tested on every element, the homomorphism on every pair."""
    label = f"covariance[{chart.name}]"
    action = chart.action
    if chart.covering == "group":
        if rule is None:
            return CheckResult(label, False, "no covariance rule declared")
        homo_fail = reference_homomorphism_failure(group, rule)
        if homo_fail:
            return CheckResult(label, False, f"rule is not a homomorphism: {homo_fail}")
        for gi, el in enumerate(group.elements):
            signs = rule.signs.get(gi)
            if signs is None or len(signs) != action.rank:
                return CheckResult(label, False, f"rule missing for element {group.names[gi]}")
            for j, axis in enumerate(action.directions):
                actual = reference_axis_sign(el, axis)
                if actual is None or actual != signs[j]:
                    moved = "a moved axis" if actual is None else f"{actual}*e{axis}"
                    return CheckResult(
                        label, False, f"{group.names[gi]} sends e{axis} to {moved}, rule says {signs[j]}"
                    )
        return CheckResult(label, True)
    if action.component_signs is None:
        if action.rank == 0:
            return CheckResult(label, False, "empty action")
        for gi, el in enumerate(group.elements):
            for axis in action.directions:
                if reference_axis_sign(el, axis) != 1:
                    return CheckResult(
                        label, False, f"{group.names[gi]} does not commute with the x{axis} action"
                    )
        return CheckResult(label, True)
    if chart.kind != "ball":
        return CheckResult(label, False, "component signs need a ball chart")
    if len(action.component_signs) != len(chart.centers):
        return CheckResult(label, False, "one sign per component required")
    axis = action.directions[0]
    index = {c: m for m, c in enumerate(chart.centers)}
    for gi, el in enumerate(group.elements):
        eps = reference_axis_sign(el, axis)
        if eps is None:
            return CheckResult(label, False, f"{group.names[gi]} moves the acting axis e{axis}")
        for m, c in enumerate(chart.centers):
            img = reference_pair_image(el, chart.constrained, c)
            if img is None or img not in index:
                return CheckResult(label, False, f"{group.names[gi]} does not permute the components")
            if eps * action.component_signs[m] != action.component_signs[index[img]]:
                return CheckResult(
                    label,
                    False,
                    f"component {tuple(str(x) for x in c)} under {group.names[gi]}: "
                    f"axis sign {eps} conflicts with the component signs",
                )
    return CheckResult(label, True)


def reference_invariance(chart, group, atlas):
    for gi, el in enumerate(group.elements):
        if gi == 0:
            continue
        res = check_invariance(chart, el, atlas)
        if not res.passed:
            res.name = f"invariance[{chart.name}/{group.names[gi]}]"
            return res
    return CheckResult(f"invariance[{chart.name}]", True)


def reference_free_action(chart, group, atlas):
    """Every fixed component of every element tested, with no memo."""
    label = f"free-action[{chart.name}]"
    if chart.covering != "group":
        return CheckResult(label, True, "trivial covering")
    by_name = {c.name: c for c in atlas}
    removed = [by_name[n] for n in chart.complement_of] if chart.kind == "complement" else []
    for gi in range(1, group.order):
        for comp in group.fixed_loci[gi]:
            if chart.kind == "full":
                return CheckResult(label, False, f"{group.names[gi]} has fixed points")
            inside = False
            for w in removed:
                a, b = w.constrained
                if any(dv[a - 1] != 0 or dv[b - 1] != 0 for dv in comp.directions):
                    continue
                cpair = (comp.basepoint[a - 1], comp.basepoint[b - 1])
                if any(reference_torus_dist_sq(cpair, ctr) <= (w.epsilon * chart.shrink) ** 2 for ctr in w.centers):
                    inside = True
                    break
            if not inside:
                return CheckResult(
                    label,
                    False,
                    f"fixed component of {group.names[gi]} at {tuple(str(x) for x in comp.basepoint)} "
                    "meets the chart",
                )
    return CheckResult(label, True, "group acts freely on the chart")


def seeded_groups(spec_a, spec_b):
    """Both bundled groups, example-a with a 1/4 translation, and random 5-dimensional groups."""
    tau = diagonal([1] * 5, [Fraction(1, 4), 0, 0, 0, 0])
    groups = [
        generate_group(spec_a.generators, spec_a.generator_names),
        generate_group(spec_b.generators, spec_b.generator_names),
        generate_group(spec_a.generators + [tau], spec_a.generator_names + ["tau"]),
    ]
    rng = random.Random(31)
    while len(groups) < 12:
        gens = []
        for _ in range(rng.randint(1, 3)):
            perm = rng.sample(range(5), 5)
            linear = tuple(tuple(rng.choice((1, -1)) if j == perm[i] else 0 for j in range(5)) for i in range(5))
            gens.append(AffineIsometry(linear, tuple(Fraction(rng.randrange(4), 4) for _ in range(5))))
        try:
            groups.append(generate_group(gens, [f"s{k}" for k in range(len(gens))], max_order=32))
        except GroupClosureError:
            pass
    return groups


def seeded_atlas(rng, group):
    """Ball charts (centers often an orbit of the group or of one generator), a group-covered
    complement, a whole-torus chart, and covariance rules."""
    n = group.dim
    balls = []
    for c in range(rng.randint(1, 3)):
        pair = tuple(rng.sample(range(1, n + 1), 2))
        seed = (Fraction(rng.randrange(4), 4), Fraction(rng.randrange(4), 4))
        centers = {seed}
        draw = rng.random()
        if draw < 0.7:  # an orbit under the group, or under a subgroup of one generator
            gens = group.generator_indices if draw < 0.4 else rng.sample(group.generator_indices, 1)
            for i in group.subgroup_generated(gens):
                if (img := reference_pair_image(group.elements[i], pair, seed)) is not None:
                    centers.add(img)
        else:
            centers |= {(Fraction(rng.randrange(4), 4), Fraction(rng.randrange(4), 4)) for _ in range(3)}
        centers = tuple(sorted(centers))
        signs = tuple(rng.choice((1, -1)) for _ in centers) if rng.random() < 0.6 else None
        action = TorusActionSymbol((rng.randrange(1, n + 1),), signs)
        balls.append(ChartSpec(f"W{c}", action, "ball", pair, centers, Fraction(1, 512)))
    v_action = TorusActionSymbol(tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, 2)))))
    v = ChartSpec("V", v_action, "complement", covering="group",
                  complement_of=tuple(b.name for b in balls), shrink=Fraction(1, 2))
    full = ChartSpec("T", TorusActionSymbol((rng.randrange(1, n + 1),)), "full",
                     covering=rng.choice(("trivial", "group")))
    choice = rng.random()
    if choice < 0.4:  # the rule of the axis signs, a homomorphism whenever the axes stay put
        rule = CovarianceRule({i: tuple(reference_axis_sign(el, a) or 1 for a in v_action.directions)
                               for i, el in enumerate(group.elements)})
    elif choice < 0.7:  # generator signs extended along the table
        rule = extend_rule(group, {group.names[g]: tuple(rng.choice((1, -1)) for _ in v_action.directions)
                                   for g in group.generator_indices})
    else:  # arbitrary signs, almost never a homomorphism
        rule = CovarianceRule({i: tuple(rng.choice((1, -1)) for _ in v_action.directions)
                               for i in range(group.order)})
    return balls + [v, full], {"V": rule, "T": rule}


def row(res):
    return (res.name, res.passed, res.detail)


def reference_action_invariance(chart, atlas):
    """The action-invariance row as it was written before the resolver: the
    ball's own pair, or each removed chart's, looked up by name."""
    label = f"action-invariance[{chart.name}]"
    action = chart.action
    if chart.kind == "full":
        return CheckResult(label, True)
    if chart.kind == "ball":
        bad = [i for i in action.directions if i in chart.constrained]
        if bad:
            return CheckResult(
                label, False, f"translation along x{bad[0]} moves the constrained coordinate off the centers"
            )
        return CheckResult(label, True)
    by_name = {c.name: c for c in atlas}
    for ref in chart.complement_of:
        bad = [i for i in action.directions if i in by_name[ref].constrained]
        if bad:
            return CheckResult(label, False, f"translation along x{bad[0]} moves removed chart {ref}")
    return CheckResult(label, True)


def reference_cover(atlas):
    """The cover row on an atlas whose complements name only its ball charts."""
    if any(c.kind == "full" for c in atlas):
        return CheckResult("cover", True, "whole-torus chart present")
    comps = [c for c in atlas if c.kind == "complement"]
    if not comps:
        return CheckResult("cover", False, "no complement chart and no full chart")
    uncovered = {c.name for c in atlas if c.kind == "ball"} - {n for c in comps for n in c.complement_of}
    if uncovered:
        return CheckResult("cover", False, f"ball charts {sorted(uncovered)} not accounted for")
    return CheckResult("cover", True, "closed shrunken balls lie inside the open balls; complement fills the rest")


def reference_rows(atlas, group, rules):
    """Every row verify_f_structure reports, in its order, from the references:
    overlap rows for every pair of meeting charts (two balls meet by the
    Fraction reference, any other pair always), each a PASS that checks
    nothing; disjointness from the same pairs; surgery from each ball's pair."""
    rows = []
    for chart in atlas:
        rows += [reference_invariance(chart, group, atlas), reference_action_invariance(chart, atlas),
                 reference_covariance(chart, group, rules.get(chart.name))]
    for chart in atlas:
        dim = len(chart.action.directions)
        rows.append(CheckResult(f"locally-free[{chart.name}]", dim > 0, f"orbit dimension {dim}" if dim
                                else "rank-0 action has no positive-dimensional orbit"))
    rows.append(reference_cover(atlas))
    rows += [reference_free_action(chart, group, atlas) for chart in atlas]
    meeting = [(c1, c2) for i, c1 in enumerate(atlas) for c2 in atlas[i + 1 :]
               if c1.kind != "ball" or c2.kind != "ball" or reference_overlap(c1, c2)]
    rows += [CheckResult(f"overlap[{c1.name}&{c2.name}]", True, "lifted translation actions commute")
             for c1, c2 in meeting]
    clash = next(((c1, c2) for c1, c2 in meeting if c1.kind == c2.kind == "ball"), None)
    rows.append(CheckResult("disjointness", clash is None, "pairwise center distance exceeds the radius sum"
                            if clash is None else f"{clash[0].name} and {clash[1].name} overlap"))
    for chart in (c for c in atlas if c.kind == "ball"):
        bad = [i for i in chart.action.directions if i in chart.constrained]
        rows.append(CheckResult(f"surgery-compatibility[{chart.name}]", not bad,
                                f"action moves constrained coordinate x{bad[0]}" if bad
                                else "acting coordinates disjoint from the constrained pair"))
    return rows


def atlas_variants(atlas):
    """A seeded atlas; without its whole-torus chart, so the complement covers;
    with a complement that removes only the first ball; its balls alone."""
    *balls, v, _full = atlas
    return [atlas, [*balls, v], [*balls, dataclasses.replace(v, complement_of=v.complement_of[:1])], balls]


def test_generator_rows_match_all_element_loops(spec_a, spec_b):
    """Every row of every seeded atlas and its variants against the reference rows."""
    rng = random.Random(2718)
    outcomes = set()
    for group in seeded_groups(spec_a, spec_b):
        for _ in range(6):
            atlas, rules = seeded_atlas(rng, group)
            for variant in atlas_variants(atlas):
                rep = verify_f_structure(variant, group, rules)
                want = reference_rows(variant, group, rules)
                assert [got.name for got in rep.all_checks] == [ref.name for ref in want]
                for got, ref in zip(rep.all_checks, want):
                    if ref.detail.startswith("rule is not a homomorphism"):
                        # Only the witness pair may differ: the rule is checked on generators.
                        assert (got.passed, got.detail[:27]) == (False, ref.detail[:27])
                    else:
                        assert row(got) == row(ref)
                    outcomes.add((ref.name.split("[")[0], ref.passed, "Psi" in ref.detail))
    # The seeded atlases reach each checking row kind both passing and
    # failing, and rules that are and are not homomorphisms.
    kinds = {(kind, passed) for kind, passed, _psi in outcomes}
    checking = ("invariance", "action-invariance", "covariance", "cover", "free-action", "disjointness",
                "surgery-compatibility")
    assert kinds == {(k, p) for k in checking for p in (True, False)} | {("locally-free", True), ("overlap", True)}
    assert ("covariance", False, True) in outcomes and ("covariance", True, False) in outcomes


def boundary_atlas(rng, group, pair, epsilon, shrink, push):
    """A ball chart on `pair` with one center per fixed component that does not
    sweep the pair, at flat-torus distance exactly epsilon·shrink from the
    component (a 3-4-5 offset with random signs, reduced mod 1, so some
    offsets wrap), or farther by a thousandth in one coordinate when `push`;
    and a group-covered complement removing it."""
    a, b = pair
    r = epsilon * shrink
    centers = set()
    for loci in group.fixed_loci[1:]:
        for comp in loci:
            if all(dv[a - 1] == 0 and dv[b - 1] == 0 for dv in comp.directions):
                dx, dy = rng.choice((1, -1)) * r * 3 / 5, rng.choice((1, -1)) * r * 4 / 5
                if push:
                    dy *= Fraction(1001, 1000)
                centers.add(((comp.basepoint[a - 1] + dx) % 1, (comp.basepoint[b - 1] + dy) % 1))
    if not centers:
        centers.add((Fraction(0), Fraction(0)))
    ball = ChartSpec("W", TorusActionSymbol((a,)), "ball", pair, tuple(sorted(centers)), epsilon)
    v = ChartSpec("V", TorusActionSymbol((a,)), "complement", covering="group",
                  complement_of=("W",), shrink=shrink)
    return [ball, v]


def test_free_action_on_integers_matches_fraction_reference_at_the_tube_boundary(spec_a, spec_b):
    """Components at distance exactly epsilon·shrink are inside the removed
    tube (the bound is closed), and pushed out by 1/1000 they are not."""
    rng = random.Random(4242)
    outcomes = Counter()
    for group in seeded_groups(spec_a, spec_b):
        n = group.dim
        for _ in range(4):
            pair = tuple(rng.sample(range(1, n + 1), 2))
            epsilon = Fraction(rng.randint(1, 9), rng.choice((1024, 1000, 2187)))
            shrink = Fraction(rng.randint(1, 6), 7)
            for push in (False, True):
                atlas = boundary_atlas(rng, group, pair, epsilon, shrink, push)
                got = fstructure._check_free_action(atlas[1], group, atlas)
                assert row(got) == row(reference_free_action(atlas[1], group, atlas))
                if any(group.fixed_loci[1:]):  # a free action passes either way
                    outcomes[push, got.passed] += 1
    # Exactly at the boundary passes at least once; pushed out never passes.
    assert outcomes[False, True] >= 3 and outcomes[True, True] == 0


def test_free_action_beyond_int64_matches_fraction_reference():
    """Example-a shifted by (1, 3, 5, 7, 11)/2^70 has N = 2^69, so its rows
    and their squared distances are Python ints (object dtype): the same
    boundary cases as above, on seeded pairs, against the Fraction reference."""
    shift = parse_construction(Path(__file__).resolve().parent / "data" / "example-a-shift70.spec")
    group = generate_group(shift.generators, shift.generator_names)
    assert group.denom == 2**69 and group.fixed_loci[1].points.dtype == object
    rng = random.Random(2**69)
    outcomes = Counter()
    # Only the pair plane (x2, x3) meets every fixed circle in a point.
    for pair in [(2, 3), (3, 2)] * 2 + [tuple(rng.sample(range(1, 6), 2)) for _ in range(2)]:
        epsilon = Fraction(rng.randint(1, 9), rng.choice((1024, 1000, 2187)))
        shrink = Fraction(rng.randint(1, 6), 7)
        for push in (False, True):
            atlas = boundary_atlas(rng, group, pair, epsilon, shrink, push)
            got = fstructure._check_free_action(atlas[1], group, atlas)
            assert row(got) == row(reference_free_action(atlas[1], group, atlas))
            outcomes[push, got.passed] += 1
    assert outcomes[False, True] >= 3 and outcomes[True, True] == 0


def test_invariance_is_checked_on_generators_only(spec_a, monkeypatch):
    tau = diagonal([1] * 5, [Fraction(1, 4), 0, 0, 0, 0])
    group = generate_group(spec_a.generators + [tau], spec_a.generator_names + ["tau"])
    calls = Counter()
    original = fstructure.check_invariance

    def counted(chart, g, atlas=None):
        if atlas is not None:  # the rows' own calls, not a complement's look at its balls
            calls[chart.name] += 1
        return original(chart, g, atlas)

    monkeypatch.setattr(fstructure, "check_invariance", counted)
    rep = verify_f_structure(spec_a.atlas, group, rules_for(spec_a, generate_group(
        spec_a.generators, spec_a.generator_names)))
    assert group.order == 32
    assert set(calls) == {c.name for c in spec_a.atlas}
    assert max(calls.values()) <= len(group.generator_indices) == 4
    assert [c.passed for c in rows_named(rep, "invariance")] == [True] * 4


@pytest.mark.parametrize("of, wrong", [
    ("W_alpha W_beta Zz", "Zz"),  # no chart of that name
    ("W_alpha T W_beta W_gamma", "T"),  # a full chart
    ("W_alpha W_beta W_gamma V", "V"),  # a complement chart, here itself
])
def test_of_names_of_no_ball_chart_raise_before_any_row(spec_a, group_a, monkeypatch, of, wrong):
    """verify_f_structure refuses the atlas with the parser's wording for the same spec."""
    text = Path(bundled_examples()["example-a.spec"]).read_text().replace("of W_alpha W_beta W_gamma", f"of {of}")
    text += "\n[chart T]\nkind full\naction 1\n"
    with pytest.raises(SpecParseError) as parsed:
        parse_construction_text(text)
    [parser_message] = [f"{fld}: {why}" for _ln, fld, why in parsed.value.errors if fld == "chart V"]
    assert parser_message == f"chart V: of names no ball chart of the atlas: {wrong}"
    charts = atlas_by_name(spec_a)
    atlas = [*spec_a.atlas[:-1], dataclasses.replace(charts["V"], complement_of=tuple(of.split())),
             ChartSpec("T", TorusActionSymbol((1,)), "full")]
    rows = []
    monkeypatch.setattr(fstructure, "CheckResult", lambda *args, **kwargs: rows.append(args))
    with pytest.raises(ValueError) as refused:
        verify_f_structure(atlas, group_a, rules_for(spec_a, group_a))
    assert (str(refused.value), rows) == (parser_message, [])


def test_complement_rows_need_the_atlas_they_name(spec_a, group_a):
    v = atlas_by_name(spec_a)["V"]
    message = "chart V: of names no ball chart of the atlas: W_alpha, W_beta, W_gamma"
    for check in (lambda: check_invariance(v, group_a.elements[1]), lambda: check_action_invariance(v, v.action)):
        with pytest.raises(ValueError) as refused:
            check()
        assert str(refused.value) == message
