import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    cutoff_derivative_bounds,
    euler_chart_christoffel_exact,
    reference_cartan_coefficients,
    reference_eh_jets,
    reference_euclidean_jets,
    reference_glued_jets,
    scale_profile,
)
from kummerlab import curvature, pipeline
from kummerlab.curvature import (
    DIAM_BOUND_FORMULA,
    MetricChart,
    NotPositiveDefinite,
    RadialProfile,
    calibration,
    christoffel,
    cohomo_curvature,
    decay_scan,
    diam_bound,
    eh_profile,
    euclidean_chart,
    euclidean_profile,
    euler_chart,
    euler_coframe,
    fit_loglog,
    frame_norms,
    glue_ricci_scan,
    glued_profile,
    make_cutoff,
    mu_report,
    riemann,
    sphere_chart,
    _richardson_derivative,
)
from kummerlab.jets import Jet
from test_jets import same_bits

EH_POINT = [3.0, 1.0, 0.7, 0.9]


def test_calibration_record():
    cal = calibration()
    assert cal.coframe_normalization == "half-angle"
    assert cal.structure_constant == -2.0
    assert cal.sphere_ricci_positive
    assert cal.contraction_sign == 1
    assert cal.flat_residual < 1e-6
    assert cal.instanton_ricci_residual < 1e-6


def test_christoffel_euclidean_zero():
    gamma = christoffel(euclidean_chart(3), [0.4, -1.2, 2.0])
    assert np.max(np.abs(gamma)) < 1e-12


def test_christoffel_round_sphere_closed_forms():
    chart = sphere_chart(2.0)
    theta = 1.0
    gamma = christoffel(chart, [theta, 0.4])
    assert abs(gamma[0, 1, 1] - (-math.sin(theta) * math.cos(theta))) < 1e-8
    assert abs(gamma[1, 0, 1] - 1.0 / math.tan(theta)) < 1e-8
    assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) < 1e-12


def test_christoffel_euler_chart_matches_exact_oracle():
    prof = eh_profile()
    chart = euler_chart(prof)
    fd = christoffel(chart, EH_POINT)
    exact = euler_chart_christoffel_exact(prof, EH_POINT)
    rel = np.max(np.abs(fd - exact)) / np.max(np.abs(exact))
    assert rel < 1e-6


def test_christoffel_rejects_bad_metric():
    bad = MetricChart(2, lambda x: np.array([[1.0, 2.0], [2.0, 1.0]]), [(-5, 5), (-5, 5)])
    with pytest.raises(NotPositiveDefinite):
        christoffel(bad, [0.0, 0.0])
    with pytest.raises(ValueError, match="box"):
        christoffel(sphere_chart(1.0), [0.2, 0.0])


def test_riemann_euclidean_flat():
    _, sample = riemann(euclidean_chart(3), [0.3, 0.1, -0.4])
    assert sample.rm_norm < 1e-9


def test_riemann_round_sphere_constant_curvature():
    a = 2.0
    chart = sphere_chart(a)
    for theta in (0.6, 0.9, 1.2, 1.8, 2.4):
        _, sample = riemann(chart, [theta, 0.3])
        k = sample.ricci_frame[0, 0]  # Ricci = K * id on a surface
        assert abs(k - 1.0 / a**2) < 1e-8
        assert np.max(np.abs(sample.ricci_frame - np.eye(2) / a**2)) < 1e-8
        assert sample.pair_residual < 1e-6
        assert sample.bianchi_residual < 1e-6


def test_riemann_euler_chart_rm_decay_slope():
    chart = euler_chart(eh_profile())
    radii = [5.0, 10.0, 20.0, 40.0]
    values = [riemann(chart, [r, 1.0, 0.7, 0.9])[1].rm_norm for r in radii]
    slope, _, _ = fit_loglog(radii, values)
    assert abs(slope - (-6.0)) <= 0.1


def test_eh_profile_identities():
    prof = eh_profile()
    for r in (1.5, 2.0, 10.0):
        a, b, c = prof.values(r)
        assert abs(a * (1 - r**-4) - 1.0) < 1e-14
    a, b, c = prof.values(100.0)
    assert abs(b / c - 1.0) <= 1.0000001e-8
    with pytest.raises(ValueError, match="domain"):
        prof.values(0.9)


def test_eh_profile_ricci_flat():
    prof = eh_profile()
    for r in (1.2, 2.0, 5.0, 20.0):
        assert cohomo_curvature(prof, r).ric_norm < 1e-6


def test_cutoff_plateaus_and_monotone():
    cut = make_cutoff(7.0)
    assert cut.jet(3.5).value == 1.0
    assert cut.jet(21.0).value == 0.0
    values = [cut.jet(float(r)).value for r in np.linspace(7.0, 14.0, 100)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert 0.0 <= min(values) and max(values) <= 1.0


def test_cutoff_derivative_bound_scales():
    sups = []
    for d in (10.0, 40.0, 160.0):
        cut = make_cutoff(d)
        rs = np.linspace(d, 2 * d, 400)
        sups.append(max(abs(cut.jet(float(r)).derivative(1)) for r in rs) * d)
    assert max(sups) / min(sups) < 1.01
    bounds = cutoff_derivative_bounds(make_cutoff(5.0), samples=256)
    assert set(bounds) == {1, 2, 3, 4}
    assert all(v > 0 for v in bounds.values())


def test_glued_profile_plateau_exactness():
    d = 10.0
    prof = glued_profile(d)
    ale = eh_profile()
    assert prof.values(d / 2) == ale.values(d / 2)
    r = 3 * d
    assert prof.values(r) == (1.0, r * r, r * r)


def test_glued_profile_positivity_dense():
    prof = glued_profile(10.0)
    for r in np.linspace(1.05, 40.0, 800):
        a, b, c = prof.values(float(r))
        assert a > 0 and b > 0 and c > 0


def test_glued_profile_requires_minimum_scale():
    with pytest.raises(ValueError, match="d >= 4"):
        glued_profile(2.0)
    with pytest.raises(ValueError, match="d >= 4"):
        glued_profile(np.array([10.0, 3.5, 20.0]))


def test_cohomo_flat_polar_metric():
    sample = cohomo_curvature(euclidean_profile(), 3.7)
    assert sample.rm_norm < 1e-9


def test_cohomo_matches_generic_engine_componentwise():
    prof = eh_profile()
    chart = euler_chart(prof)
    for r in (1.5, 2.0, 3.0, 4.0, 5.0):
        x = [r, 1.0, 0.7, 0.9]
        frame = euler_coframe(prof, x)
        g = chart.metric(np.asarray(x))
        assert np.max(np.abs(frame.T @ frame - g)) < 1e-12
        _, fd_sample = riemann(chart, x, frame=frame)
        cartan = cohomo_curvature(prof, r)
        num = np.max(np.abs(fd_sample.riemann_frame - cartan.riemann_frame))
        den = np.max(np.abs(cartan.riemann_frame))
        assert num / den < 1e-6
        assert cartan.pair_residual < 1e-6 and cartan.bianchi_residual < 1e-6


def test_decay_scan_slopes():
    scan = decay_scan(eh_profile(), [10, 20, 40, 80, 160])
    assert abs(scan.series["metric_deviation"].slope - (-4.0)) <= 0.1
    assert abs(scan.series["rm_norm"].slope - (-6.0)) <= 0.1


def test_decay_scan_null_marker_on_flat_profile():
    scan = decay_scan(euclidean_profile(), [10, 20, 40, 80])
    assert scan.series["metric_deviation"].slope is None
    assert scan.series["metric_deviation"].values == [0.0, 0.0, 0.0, 0.0]


def test_decay_scan_validates_grid():
    with pytest.raises(ValueError, match="at least 4"):
        decay_scan(eh_profile(), [10, 20, 40])
    with pytest.raises(ValueError, match="constant ratio"):
        decay_scan(eh_profile(), [10, 20, 30, 40])


def test_glue_scan_slope_and_positivity():
    scan = glue_ricci_scan([10, 20, 40, 80, 160], grid_points=256)
    slope = scan.series["sup_ric_annulus"].slope
    assert abs(slope - (-6.0)) <= 0.2
    assert all(v > 0 for v in scan.series["sup_ric_annulus"].values)


def test_glue_scan_grid_doubling_stability():
    coarse = glue_ricci_scan([10, 20, 40, 80], grid_points=512)
    fine = glue_ricci_scan([10, 20, 40, 80], grid_points=1024)
    for a, b in zip(
        coarse.series["sup_ric_annulus"].values, fine.series["sup_ric_annulus"].values
    ):
        assert abs(a - b) / b < 0.01


def test_glued_metric_euclidean_outside():
    prof = glued_profile(40.0)
    for r in np.geomspace(2.5 * 40.0, 3 * 40.0, 16):
        assert cohomo_curvature(prof, float(r)).ric_norm < 1e-9
    assert cohomo_curvature(prof, 47.0).ric_norm > 0  # inside the ramp


def test_mu_report_slopes_and_monotonicity():
    ds = [10, 20, 40, 80, 160]
    scan = glue_ricci_scan(ds, grid_points=256)
    mu = mu_report(scan, ds)
    assert abs(mu.series["rescaled_sup_ric"].slope - (-4.0)) <= 0.2
    mus = mu.series["mu_proxy"].values
    assert all(b < a for a, b in zip(mus, mus[1:]))
    diams = mu.series["diam_bound"].values
    assert all(abs(dm - diam_bound(d)) < 1e-15 for dm, d in zip(diams, ds))
    assert all(1.0 < dm <= 1.0 + 0.3 for dm, d in zip(diams, ds))
    assert "20d" in DIAM_BOUND_FORMULA


def test_rescaling_a_ricci_flat_sample_stays_flat():
    d = 160.0
    base = cohomo_curvature(eh_profile(), 5.0).ric_norm
    assert (20.0 * d) ** 2 * base < 1e-6


def test_ricci_scaling_law():
    # Ricci as a (0,2) tensor is scale invariant; its frame norm scales by
    # 1/c^2.  Checked on the glued profile inside the ramp, where Ricci
    # is genuinely nonzero.
    prof = glued_profile(10.0)
    r = 12.5
    base = cohomo_curvature(prof, r)
    x = [r, 1.0, 0.7, 0.9]
    cof = euler_coframe(prof, x)
    ric_coord = cof.T @ base.ricci_frame @ cof
    for c2 in (0.25, 9.0):
        scaled_prof = scale_profile(prof, c2)
        scaled = cohomo_curvature(scaled_prof, r)
        assert abs(scaled.ric_norm - base.ric_norm / c2) / (base.ric_norm / c2) < 1e-8
        cof_scaled = euler_coframe(scaled_prof, x)
        ric_coord_scaled = cof_scaled.T @ scaled.ricci_frame @ cof_scaled
        assert np.max(np.abs(ric_coord_scaled - ric_coord)) / np.max(np.abs(ric_coord)) < 1e-8


def test_finite_difference_convergence():
    # Halving the step must leave curvature essentially unchanged.
    chart = sphere_chart(2.0)
    x = [1.1, 0.4]
    _, s1 = riemann(chart, x)
    half = MetricChart(chart.dim, chart.g, chart.box, fd_step=chart.fd_step / 2)
    _, s2 = riemann(half, x)
    assert np.max(np.abs(s1.riemann_frame - s2.riemann_frame)) < 1e-8
    # Empirical order of the Richardson-extrapolated stencil on sin.
    err = lambda h: abs(_richardson_derivative(lambda p: math.sin(p[0]), np.array([1.0]), 0, h) - math.cos(1.0))
    ratio = err(0.2) / err(0.1)
    assert 20 < ratio < 200  # consistent with 6th order (2^6 = 64)


def test_fit_loglog_validation():
    with pytest.raises(ValueError, match="4 points"):
        fit_loglog([1, 2, 3], [1, 1, 1])
    assert fit_loglog([1, 2, 4, 8], [0.0, 1.0, 1.0, 1.0]) is None
    slope, intercept, residual = fit_loglog([1, 2, 4, 8], [2.0, 1.0, 0.5, 0.25])
    assert abs(slope - (-1.0)) < 1e-12
    assert residual < 1e-12


# ---------------------------------------------------------------------------
# The array-jet annulus scan against the per-radius scalar reference.


def annulus_sup_reference(d, grid_points):
    """The per-radius scalar-jet loop: one dense curvature sample per radius."""
    prof = glued_profile(d)
    grid = np.geomspace(d, 2.0 * d, grid_points)
    best_r, best_ric, best_rm = float(grid[0]), -1.0, -1.0
    for r in grid:
        sample = cohomo_curvature(prof, float(r))
        if sample.ric_norm > best_ric:
            best_ric, best_r = sample.ric_norm, float(r)
        best_rm = max(best_rm, sample.rm_norm)
    return best_r, best_ric, best_rm


def _annulus_sup(d, grid_points):
    """One array pass per annulus, with a scalar cutoff scale: the
    reference for the batched glue scan."""
    grid = np.geomspace(d, 2.0 * d, grid_points)
    ric, rm = frame_norms(glued_profile(d), grid)
    best = int(np.argmax(ric))
    return float(grid[best]), float(ric[best]), float(rm.max())


def scan_rows(scan):
    return list(zip(*(scan.series[k].values for k in ("r_sup", "sup_ric_annulus", "sup_rm_annulus"))))


@pytest.mark.parametrize("grid_points", [64, 512, 2048])
@pytest.mark.parametrize("d", [4.0, 5.25, 10.0, 160.0])
def test_annulus_sup_matches_per_radius_reference(d, grid_points):
    r_sup, ric, rm = _annulus_sup(d, grid_points)
    ref_r, ref_ric, ref_rm = annulus_sup_reference(d, grid_points)
    assert r_sup == ref_r
    assert abs(ric - ref_ric) <= 1e-12 * ref_ric
    assert abs(rm - ref_rm) <= 1e-12 * ref_rm


@pytest.mark.parametrize("grid_points", [64, 512, 2048])
def test_batched_glue_scan_rows_equal_per_annulus_passes(grid_points):
    ds = [10.0, 20.0, 40.0, 80.0, 160.0]
    rows = scan_rows(glue_ricci_scan(ds, grid_points))
    assert rows == [_annulus_sup(d, grid_points) for d in ds]


def test_batched_glue_scan_rows_equal_per_annulus_passes_on_every_dense_scan():
    """All 49 d0 = k/4 (k = 16..64) of the benchmark's dense scan, d = d0 * 2^j."""
    for k in range(16, 65):
        ds = [k / 4 * 2**j for j in range(5)]
        assert scan_rows(glue_ricci_scan(ds, 2048)) == [_annulus_sup(d, 2048) for d in ds], k


def count_passes(monkeypatch):
    """Record the number of radii of every _cartan_coefficients pass."""
    calibration()  # cached; its scalar samples must not count below
    sizes = []
    original = curvature._cartan_coefficients

    def counted(profile, r, n):
        sizes.append(np.size(r))
        return original(profile, r, n)

    monkeypatch.setattr(curvature, "_cartan_coefficients", counted)
    return sizes


def test_glue_scan_passes_hold_at_most_the_budget(monkeypatch):
    ds = [10.0, 20.0, 40.0, 80.0, 160.0]
    expected = [_annulus_sup(d, 512) for d in ds]
    sizes = count_passes(monkeypatch)
    monkeypatch.setattr(curvature, "PASS_RADII", 1024)
    assert scan_rows(glue_ricci_scan(ds, 512)) == expected
    assert sizes == [1024, 1024, 512]
    sizes.clear()
    monkeypatch.setattr(curvature, "PASS_RADII", 300)  # below one annulus: one annulus a pass
    assert scan_rows(glue_ricci_scan(ds, 512)) == expected
    assert sizes == [512] * 5


def test_instanton_sup_equals_dense_samples(spec_a):
    radii = spec_a.gluing.ricci_flat_radii
    prof = eh_profile()
    dense = [cohomo_curvature(prof, r).ric_norm for r in radii]
    assert frame_norms(prof, radii)[0].tolist() == dense
    for radius_set in [radii] + [[r] for r in radii]:
        gluing = dataclasses.replace(spec_a.gluing, ricci_flat_radii=radius_set)
        report = pipeline.Report()
        pipeline.run_curvature_stage(dataclasses.replace(spec_a, gluing=gluing), report, 1.0)
        sup = report.sections["curvature"]["instanton_ricci"]["sup_ric"]
        assert sup == max(cohomo_curvature(prof, r).ric_norm for r in radius_set)


def test_decay_scan_matches_per_radius_samples(spec_a):
    radii = spec_a.gluing.decay_radii
    prof = eh_profile()
    scan = decay_scan(prof, radii)
    devs = []
    for r in radii:
        a, b, c = prof.values(r)
        devs.append(max(abs(a - 1.0), abs(b / r**2 - 1.0), abs(c / r**2 - 1.0)))
    assert scan.series["metric_deviation"].values == devs
    for rm, r in zip(scan.series["rm_norm"].values, radii):
        dense = cohomo_curvature(prof, r).rm_norm
        assert abs(rm - dense) <= 2 * math.ulp(dense)  # |Rm| sums its squares in another order


def test_constant_profile_curvature_matches_finite_differences():
    """A, B, C constant in r: a line times a Berger sphere.  Every jet is a
    constant, so every Cartan coefficient is a float; both engines still
    agree with the finite-difference chart oracle, and frame_norms returns
    one entry per radius."""
    prof = RadialProfile("cyl", lambda r: (Jet.const(1.0), Jet.const(4.0), Jet.const(9.0)), (0.0, math.inf))
    chart = euler_chart(prof)
    radii = np.array([1.5, 3.0, 7.0])
    ric, rm = frame_norms(prof, radii)
    assert ric.shape == rm.shape == radii.shape
    for i, r in enumerate(radii):
        x = [float(r), 1.0, 0.7, 0.9]
        _, fd = riemann(chart, x, frame=euler_coframe(prof, x))
        cartan = cohomo_curvature(prof, float(r))
        scale = np.max(np.abs(cartan.riemann_frame))
        assert scale > 0.1  # the Berger sphere is curved
        assert np.max(np.abs(fd.riemann_frame - cartan.riemann_frame)) < 1e-6 * scale
        assert ric[i] == cartan.ric_norm and abs(ric[i] - fd.ric_norm) < 1e-6 * scale
        assert abs(rm[i] - fd.rm_norm) < 1e-6 * scale


@pytest.mark.parametrize(
    "prof", [eh_profile(), glued_profile(10.0), glued_profile(6.5), euclidean_profile()],
    ids=lambda p: p.name,
)
def test_closed_form_norms_match_dense_samples(prof):
    radii = np.sort(np.random.default_rng(7).uniform(1.2, 40.0, 96))
    ric, rm = frame_norms(prof, radii)
    samples = [cohomo_curvature(prof, float(r)) for r in radii]
    scale = max(max(s.rm_norm for s in samples), 1.0)
    for i, s in enumerate(samples):
        assert ric[i] == s.ric_norm  # summed in the dense contraction's order
        assert abs(rm[i] - s.rm_norm) <= 1e-12 * scale


def test_frame_norms_name_the_bad_radius():
    radii = np.array([2.0, 3.0, 0.5, 0.25])
    with pytest.raises(ValueError, match=r"radius 0\.5 outside the open domain"):
        frame_norms(eh_profile(), radii)
    with pytest.raises(ValueError, match=r"radius 0\.5 outside the open domain"):
        cohomo_curvature(eh_profile(), 0.5)
    negative = RadialProfile("dented", lambda r: (Jet.const(1.0), 7.0 - r, r**2), (0.0, math.inf))
    with pytest.raises(ValueError, match=r"not positive at r=7\.5"):
        frame_norms(negative, np.array([1.0, 6.5, 7.5, 8.0]))
    with pytest.raises(ValueError, match=r"not positive at r=7\.5"):
        cohomo_curvature(negative, 7.5)


@pytest.mark.parametrize(
    "grid_points, passes",
    [(64, [320]), (512, [2560]), (2048, [4096, 4096, 2048])],
    ids=["64", "512", "2048"],
)
def test_glue_scan_packs_whole_annuli_into_passes(grid_points, passes, monkeypatch):
    """One pass at the bundled specs' sizes; at 2048 radii, two annuli a pass."""
    sizes = count_passes(monkeypatch)
    dense = []
    original = curvature.cohomo_curvature
    monkeypatch.setattr(curvature, "cohomo_curvature", lambda *a: dense.append(a) or original(*a))
    glue_ricci_scan([10, 20, 40, 80, 160], grid_points=grid_points)
    assert dense == []
    assert sizes == passes


def test_glued_profile_evaluates_the_cutoff_once_per_pass(monkeypatch):
    calls = []
    original = curvature.Cutoff.jet

    def counted(self, r):
        calls.append(self.d)
        return original(self, r)

    monkeypatch.setattr(curvature.Cutoff, "jet", counted)
    glue_ricci_scan([10, 20, 40, 80, 160], grid_points=64)
    assert len(calls) == 1
    assert calls[0].tolist() == np.repeat([10.0, 20.0, 40.0, 80.0, 160.0], 64).tolist()
    calls.clear()
    cohomo_curvature(glued_profile(10.0), 13.0)
    assert calls == [10.0]


# ---------------------------------------------------------------------------
# The trimmed pass against the full-order reference, bit for bit.


def _edge_radii(d):
    """Radii across the plateaus and the ramp of scale d, with d and 2d exact."""
    return np.concatenate([np.geomspace(1.05, 4.0 * d, 97), [d, 2.0 * d, 1.5 * d]])


CYLINDER_JETS = lambda r: (Jet.const(1.0), Jet.const(4.0), Jet.const(9.0))  # noqa: E731
# No component linear in r or its square: sqrt(C) has a second derivative.
BENT_JETS = lambda r: (1.0 + 1.0 / r, r * r * r / (r + 1.0), r * r + r)  # noqa: E731
SCALES = np.repeat([4.0, 6.5, 10.0, 33.3], 25)
TRIMMED_CASES = {
    "eguchi-hanson": (eh_profile(), reference_eh_jets, _edge_radii(10.0)),
    "euclidean": (euclidean_profile(), reference_euclidean_jets, _edge_radii(10.0)),
    "cylinder": (RadialProfile("cyl", CYLINDER_JETS, (0, math.inf)), CYLINDER_JETS, _edge_radii(10.0)),
    "bent": (RadialProfile("bent", BENT_JETS, (0, math.inf)), BENT_JETS, _edge_radii(10.0)),
    **{
        f"glued-{d:g}": (glued_profile(d), reference_glued_jets(d), _edge_radii(d))
        for d in (4.0, 6.5, 10.0, 33.3)
    },
    # One scale per radius: each block of 25 radii holds d, 2d, both plateaus and the ramp.
    "glued-per-radius": (
        glued_profile(SCALES),
        reference_glued_jets(SCALES),
        SCALES * np.tile(np.r_[0.5, 0.99, 1.0, np.linspace(1.05, 1.95, 19), 2.0, 2.01, 3.0], 4),
    ),
    # Every radius on one plateau: the bumps' all-zero and never-zero paths.
    "glued-inner-plateau": (glued_profile(10.0), reference_glued_jets(10.0), np.linspace(1.5, 10.0, 9)),
    "glued-outer-plateau": (glued_profile(10.0), reference_glued_jets(10.0), np.linspace(20.0, 90.0, 9)),
}


@pytest.mark.parametrize("n", [-2.0, -1.0])
@pytest.mark.parametrize("case", sorted(TRIMMED_CASES))
def test_trimmed_pass_equals_full_order_reference(case, n):
    """E, M, N, P of the pass, each jet truncated to the order read, equal
    the order-2 evaluation bit for bit, signed zeros included, on an array
    of radii and at each radius alone."""
    profile, jets, radii = TRIMMED_CASES[case]
    shaped = lambda x: np.broadcast_to(x, radii.shape)  # noqa: E731
    got = curvature._cartan_coefficients(profile, radii, n)
    for g, w in zip(got, reference_cartan_coefficients(jets, radii, n)):
        assert all(same_bits(shaped(x), shaped(y)) for x, y in zip(g, w))
    if case == "glued-per-radius":
        return  # one scale per radius has no single-radius form
    for r in radii[::7].tolist() + radii[-3:].tolist():
        got = curvature._cartan_coefficients(profile, r, n)
        for g, w in zip(got, reference_cartan_coefficients(jets, r, n)):
            assert all(same_bits(x, y) and type(x) is type(y) for x, y in zip(g, w))


GOLDEN_SCANS = Path(__file__).resolve().parent / "data" / "golden" / "scan-dense"


def test_every_dense_scan_csv_matches_golden(tmp_path):
    """Both CSV tables of all 49 dense scans the benchmark draws from (d0 = k/4,
    k = 16..64, d = d0 * 2^j, j = 0..4, 2048 radii each: three passes of 2, 2
    and 1 annuli), pinned from the full-order pass."""
    assert_dense_scan_csvs_match_golden(tmp_path)


def test_dense_scan_csvs_match_golden_with_libm_exp(tmp_path, libm_exp):
    """The 49 dense scans write the same CSVs with Jet.exp on libm's kernel."""
    assert_dense_scan_csvs_match_golden(tmp_path)
    assert libm_exp.calls > 0


def assert_dense_scan_csvs_match_golden(tmp_path):
    for k in range(16, 65):
        d0 = k / 4
        ds = [d0 * 2**j for j in range(5)]
        scan = glue_ricci_scan(ds, 2048)
        files = pipeline.write_scan_csv(scan, mu_report(scan, ds), tmp_path / f"d0-{d0:g}.scan.csv")
        for f in map(Path, files):
            assert f.read_bytes() == (GOLDEN_SCANS / f.name).read_bytes(), f.name
