import dataclasses
from fractions import Fraction

import pytest

from kummerlab.fstructure import (
    ChartSpec,
    CovarianceRule,
    TorusActionSymbol,
    check_action_invariance,
    check_covariance,
    check_invariance,
    check_locally_free,
    extend_rule,
    verify_f_structure,
    _overlap_nonempty,
    _torus_dist_sq,
)
from kummerlab.torus import AffineIsometry, generate_group

HALF = Fraction(1, 2)


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
    group = generate_group([AffineIsometry.identity(5)])
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


def test_verify_first_atlas_passes(spec_a, group_a):
    rep = verify_f_structure(spec_a.atlas, group_a, rules_for(spec_a, group_a))
    assert rep.passed
    assert rep.polarized
    assert rep.rank == 1
    assert rep.cover.passed
    assert rep.disjointness.passed
    assert all(c.passed for c in rep.surgery_flags)
    assert all(c.passed for c in rep.covering_data)


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
    group = generate_group([AffineIsometry.identity(5)])
    chart = ChartSpec("T", TorusActionSymbol((1, 2, 3, 4, 5)), "full")
    rep = verify_f_structure([chart], group)
    assert rep.passed
    assert rep.rank == 5
    assert rep.polarized


def test_free_action_check_rejects_fixed_points_on_cover():
    half = HALF
    alpha = AffineIsometry.from_diagonal([1, -1, -1, -1, -1], [0, 0, 0, half, 0])
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
                    _torus_dist_sq(p, q) for p in c1.centers for q in c2.centers
                )
                assert mind > (c1.epsilon + c2.epsilon) ** 2


def test_surgery_flags(spec_a, spec_b):
    for spec in (spec_a, spec_b):
        for chart in spec.atlas:
            if chart.kind == "ball":
                assert not set(chart.action.directions) & set(chart.constrained)


def test_chart_validation():
    with pytest.raises(ValueError, match="epsilon"):
        ChartSpec("W", TorusActionSymbol((1,)), "ball", (2, 3), ((Fraction(0), Fraction(0)),), Fraction(1, 10))
    with pytest.raises(ValueError, match="distinct"):
        TorusActionSymbol((1, 1))
    with pytest.raises(ValueError, match="circle"):
        TorusActionSymbol((1, 2), (1, -1))


def test_extend_rule_requires_generating_set(group_a):
    with pytest.raises(ValueError, match="generate"):
        extend_rule(group_a, {"alpha": (1,)})
    with pytest.raises(ValueError, match="unknown"):
        extend_rule(group_a, {"nope": (1,)})


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
    assert [c.name for c in rep.overlap] == ["overlap[W_a&V]", "overlap[W_b&V]", "overlap[W_c&V]"]
    assert rep.passed


def named(chart, name):
    return dataclasses.replace(chart, name=name)


def test_disjointness_fails_iff_some_ball_pair_overlaps(group_a):
    # Tubes on disjoint coordinate pairs always meet.
    rep = verify_f_structure(
        [named(ball((2, 3), (0, 0)), "W1"), named(ball((4, 5), ("1/2", "1/2")), "W2")], group_a
    )
    assert not rep.disjointness.passed
    assert rep.disjointness.detail == "W1 and W2 overlap"
    # Tangent open tubes do not meet: disjointness agrees with the overlap rows.
    w = ball((3, 5), (0, "1/4"))
    for other in (ball((3, 5), ("1/64", "1/4")), ball((5, 3), ("1/4", "1/128")), ball((3, 4), ("1/64", 0))):
        rep = verify_f_structure([named(w, "W1"), named(other, "W2")], group_a)
        assert rep.disjointness.passed == (not rep.overlap) == (not _overlap_nonempty(w, other))
