import dataclasses
import decimal
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    JetProfile,
    cutoff_derivative_bounds,
    euler_chart_christoffel_exact,
    example_spec,
    oracle_coefficients,
    oracle_frame_norms,
    reference_cartan_coefficients,
    reference_cutoff,
    reference_eh_jets,
    reference_euclidean_jets,
    reference_glued_jets,
    reference_squared_norms,
    scale_profile,
)
from jets import Jet
from kummerlab import curvature, pipeline
from kummerlab.curvature import (
    CalibrationRecord,
    DIAM_BOUND_FORMULA,
    MetricChart,
    NotPositiveDefinite,
    RadialProfile,
    annulus_ratios,
    calibration,
    christoffel,
    cohomo_curvature,
    cutoff,
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
    mu_report,
    riemann,
    sphere_chart,
    _richardson_derivative,
)
from kummerlab.specfile import MAX_SCAN_RADIUS, parse_construction
from test_jets import same_bits

EH_POINT = [3.0, 1.0, 0.7, 0.9]


def reference_frame_norms(jets, radii, n: float):
    """|Ric| and |Rm| of the profile with the given jets and structure
    constant n, from the full-order reference coefficients."""
    ric2, rm2 = reference_squared_norms(*reference_cartan_coefficients(jets, np.asarray(radii, dtype=float), n))
    return np.sqrt(ric2), np.sqrt(rm2)


def test_calibration_record():
    """Both conventions, derived from their oracles, are the record's.

    The structure constant is the candidate (half-angle coframe n = -2,
    unit coframe n = -1) that makes the flat polar profile flat and the
    instanton profile Ricci-flat to 1e-6; the contraction sign is the one
    under which the round sphere's Ricci R_{ik} = R^l_{lik} is positive.
    """
    passing = [
        n for n in (-2.0, -1.0)
        if np.max(reference_frame_norms(reference_euclidean_jets, (0.7, 2.0, 11.0), n)[1]) < 1e-6
        and np.max(reference_frame_norms(reference_eh_jets, (1.5, 3.0, 9.0), n)[0]) < 1e-6
    ]
    assert passing == [-2.0]
    ric = np.einsum("llik->ik", riemann(sphere_chart(2.0), [1.0, 0.3])[0])
    positive = bool(ric[0, 0] > 0 and ric[1, 1] > 0)
    derived = CalibrationRecord(
        structure_constant=passing[0],
        coframe_normalization="half-angle",
        contraction_sign=1 if positive else -1,
        sphere_ricci_positive=positive,
    )
    assert calibration() == derived
    assert curvature.STRUCTURE_CONSTANT == derived.structure_constant


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
    plateaus = cutoff(np.array([3.5, 7.0, 14.0, 21.0]), 7.0)
    assert [q.tolist() for q in plateaus] == [[1.0, 1.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4]
    values = cutoff(np.linspace(7.0, 14.0, 100), 7.0)[0].tolist()
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert 0.0 <= min(values) and max(values) <= 1.0


def test_cutoff_derivative_bound_scales():
    sups = []
    for d in (10.0, 40.0, 160.0):
        rs = np.linspace(d, 2 * d, 400)
        sups.append(float(np.max(np.abs(cutoff(rs, d)[1]))) * d)
    assert max(sups) / min(sups) < 1.01
    bounds = cutoff_derivative_bounds(5.0, samples=256)
    assert set(bounds) == {1, 2, 3, 4}
    assert all(v > 0 for v in bounds.values())


def test_glued_profile_plateau_exactness():
    d = 10.0
    prof = glued_profile(d)
    ale = eh_profile()
    assert prof.values(d / 2) == ale.values(d / 2)
    r = 3 * d
    assert prof.values(r) == (1.0, r * r, r * r)
    beyond = 2 * d * np.sort(1.0 + np.random.default_rng(2).exponential(3.0, 200))
    assert all(same_bits(x, y) for x, y in zip(frame_norms(prof, beyond), frame_norms(euclidean_profile(), beyond)))
    assert all(np.array_equal(x, y) for x, y in zip(prof.values(beyond), euclidean_profile().values(beyond)))


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
    mu = mu_report(scan)
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
    # The metric times c^2 is a profile of the radius rho = c r (scale_profile).
    prof = glued_profile(10.0)
    r = 12.5
    base = cohomo_curvature(prof, r)
    x = [r, 1.0, 0.7, 0.9]
    cof = euler_coframe(prof, x)
    ric_coord = cof.T @ base.ricci_frame @ cof
    for c in (0.5, 3.0):
        scaled_prof = scale_profile(prof, c)
        scaled = cohomo_curvature(scaled_prof, c * r)
        assert abs(scaled.ric_norm - base.ric_norm / c**2) / (base.ric_norm / c**2) < 1e-8
        cof_scaled = euler_coframe(scaled_prof, [c * r, *x[1:]])
        drho = np.diag([c, 1.0, 1.0, 1.0])  # d rho = c dr: back to the chart of r
        ric_coord_scaled = drho @ cof_scaled.T @ scaled.ricci_frame @ cof_scaled @ drho
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
# The batched annulus scan against the per-radius scalar reference.


def annulus_sup_reference(d, grid_points):
    """The per-radius scalar-jet loop: one dense curvature sample per radius."""
    prof = glued_profile(d)
    grid = d * annulus_ratios(grid_points)
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
    grid = d * annulus_ratios(grid_points)
    ric, rm = frame_norms(glued_profile(d), grid)
    best = int(np.argmax(ric))
    return float(grid[best]), float(ric[best]), float(rm.max())


@pytest.mark.parametrize("grid_points", [2, 3, 64, 512, 2048])
def test_annulus_ratios_are_the_sequential_products_of_one_decimal_ratio(grid_points):
    """q_0 = 1 and q_{g-1} = 2 exactly, strictly increasing, and in between
    the products q_{i+1} = q_i * rho taken one multiply at a time, rho being
    2^(1/(g-1)) rounded once from a 50-digit decimal power."""
    ctx = decimal.Context(prec=50)
    rho = float(ctx.power(decimal.Decimal(2), ctx.divide(1, grid_points - 1)))
    want = [1.0]
    for _ in range(grid_points - 2):
        want.append(want[-1] * rho)
    want.append(2.0)
    q = annulus_ratios(grid_points)
    assert q.tolist() == want
    assert q[0] == 1.0 and q[-1] == 2.0
    assert all(a < b for a, b in zip(want, want[1:]))


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
    """Record the number of radii of every kernel pass."""
    sizes = []
    original = curvature._kernel

    def counted(profile, r, work):
        sizes.append(np.size(r))
        return original(profile, r, work)

    monkeypatch.setattr(curvature, "_kernel", counted)
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
        a, _, b = prof.perturbation(np.array([r]))[:3]
        devs.append(max(abs(float(a[0])), abs(float(b[0]))))
    assert scan.series["metric_deviation"].values == devs
    for rm, r in zip(scan.series["rm_norm"].values, radii):
        dense = cohomo_curvature(prof, r).rm_norm
        assert abs(rm - dense) <= 2 * math.ulp(dense)  # |Rm| sums its squares in another order


SCAN_2048 = Path(__file__).resolve().parent / "data" / "scan-2048.spec"


def test_glued_profile_is_the_instanton_on_its_inner_plateau(spec_a):
    """At cutoff scale max(r, 4) the glued profile equals the instanton
    profile bit for bit: values, |Ric| and |Rm|, on the bundled radii and
    on seeded random radii in (1, 10^4]."""
    rng = np.random.default_rng(16)
    bundled = [*spec_a.gluing.ricci_flat_radii, *spec_a.gluing.decay_radii]
    for radii in (np.array(bundled), 1e4 - rng.uniform(0.0, 1e4 - 1.0, 4000)):
        glued, ale = glued_profile(np.maximum(radii, 4.0)), eh_profile()
        shaped = lambda x: np.broadcast_to(x, radii.shape)  # noqa: E731
        assert all(same_bits(shaped(x), shaped(y)) for x, y in zip(glued.values(radii), ale.values(radii)))
        assert all(same_bits(x, y) for x, y in zip(frame_norms(glued, radii), frame_norms(ale, radii)))


def stage_reference(gluing):
    """The stage's three scans, each in its own passes."""
    return (frame_norms(eh_profile(), gluing.ricci_flat_radii)[0], decay_scan(eh_profile(), gluing.decay_radii),
            glue_ricci_scan(gluing.d_values, gluing.annulus_grid))


def scan_values(scan):
    return {k: (s.values, s.slope, s.residual) for k, s in scan.series.items()}


@pytest.mark.parametrize("budget", [curvature.PASS_RADII, 1024, 300])
def test_stage_scans_equal_their_own_passes(spec_a, budget, monkeypatch):
    """The radii riding in the first glue pass give the instanton's |Ric|
    and decay scan bit for bit, and the glue scan is unchanged, whatever
    the pass size."""
    monkeypatch.setattr(curvature, "PASS_RADII", budget)
    for gluing in (spec_a.gluing, parse_construction(SCAN_2048).gluing):
        ric, decay, gscan = curvature.stage_scans(gluing.ricci_flat_radii, gluing.decay_radii,
                                                  gluing.d_values, gluing.annulus_grid)
        ref_ric, ref_decay, ref_gscan = stage_reference(gluing)
        assert same_bits(ric, ref_ric)
        assert scan_values(decay) == scan_values(ref_decay)
        assert scan_values(gscan) == scan_values(ref_gscan)


@pytest.mark.parametrize("spec, passes", [("example-a", [10 + 2560]), ("scan-2048", [10 + 4096, 4096, 2048])])
def test_run_all_makes_one_pass_per_glue_pass(spec, passes, spec_a, monkeypatch):
    """A verify's curvature section runs the glue scan's passes and no
    other: one on example-a, three on the dense spec."""
    sizes = count_passes(monkeypatch)
    pipeline.run_all(spec_a if spec == "example-a" else parse_construction(SCAN_2048))
    assert sizes == passes


def test_verify_runs_no_finite_difference_code(spec_a, monkeypatch):
    """The conventions are constants: a verify reaches neither the chart
    engine's Christoffel symbols nor its curvature tensor."""
    getattr(calibration, "cache_clear", lambda: None)()  # a cached record would hide a search
    calls = []
    for name in ("christoffel", "riemann"):
        original = getattr(curvature, name)
        monkeypatch.setattr(curvature, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    pipeline.run_all(spec_a)
    assert calls == []


def exact_fit(xs, ys):
    """Slope and RMS residual of the least squares of log y on log x, over
    the float logs as exact rationals."""
    lx, ly = ([Fraction(math.log(v)) for v in vs] for vs in (xs, ys))
    n = len(lx)
    mx, my = sum(lx) / n, sum(ly) / n
    sxx = sum((x - mx) ** 2 for x in lx)
    sxy = sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    syy = sum((y - my) ** 2 for y in ly)
    slope = sxy / sxx
    return float(slope), math.sqrt(float((syy - slope * sxy) / n))


def fitted_series():
    """Every fitted series of the three bundled reports with a gluing block,
    and seeded noisy power laws."""
    for spec in (example_spec("example-a.spec"), example_spec("example-b.spec"),
                 parse_construction(Path(__file__).resolve().parent / "data" / "example-b-four-chart.spec")):
        _, decay, gscan = stage_reference(spec.gluing)
        for scan in (decay, gscan, mu_report(gscan)):
            for s in scan.series.values():
                if s.slope is not None:
                    yield scan.parameters, s.values
    rng = random.Random(1414)
    for _ in range(40):
        n = rng.randint(4, 12)
        xs = [rng.uniform(0.5, 2.0) * 2.0**k for k in range(n)]
        power, noise = rng.uniform(-8, 2), 10.0 ** rng.uniform(-12, -1)
        yield xs, [x**power * math.exp(rng.gauss(0.0, noise)) for x in xs]


def test_fit_loglog_is_the_exact_least_squares_of_the_float_logs():
    """The slope and the residual, the two values reports show, agree with
    the exact rational least squares to 1e-14 relative, and the fit does
    not move when the points are permuted."""
    rng = random.Random(7)
    count = 0
    for xs, ys in fitted_series():
        got = fit_loglog(xs, ys)
        for g, w in zip(got[::2], exact_fit(xs, ys)):
            assert abs(g - w) <= 1e-14 * abs(w), (xs, ys)
        order = list(range(len(xs)))
        rng.shuffle(order)
        assert fit_loglog([xs[i] for i in order], [ys[i] for i in order]) == got
        count += 1
    assert count == 3 * 5 + 40


CYLINDER_JETS = lambda r: (Jet.const(1.0), Jet.const(4.0), Jet.const(9.0))  # noqa: E731
# No component linear in r or its square: sqrt(C) has a second derivative.
BENT_JETS = lambda r: (1.0 + 1.0 / r, r * r * r / (r + 1.0), r * r + r)  # noqa: E731


def assert_reference_matches_finite_differences(jets, radii):
    """The reference engine's frame tensor of a profile outside the C = r^2
    family agrees with the finite-difference chart oracle."""
    prof = JetProfile("reference", jets)
    chart = euler_chart(prof)
    for r in radii:
        x = [r, 1.0, 0.7, 0.9]
        _, fd = riemann(chart, x, frame=euler_coframe(prof, x))
        ref = curvature._sample_from_coefficients(*reference_cartan_coefficients(jets, r, -2.0))
        scale = np.max(np.abs(ref.riemann_frame))
        assert scale > 0.01  # curved
        assert np.max(np.abs(fd.riemann_frame - ref.riemann_frame)) < 1e-6 * scale
        assert abs(ref.ric_norm - fd.ric_norm) < 1e-6 * scale and abs(ref.rm_norm - fd.rm_norm) < 1e-6 * scale


def test_constant_profile_curvature_matches_finite_differences():
    """A, B, C constant in r: a line times a Berger sphere.  Every jet is a
    constant, so every reference coefficient is a float, and the reference
    engine agrees with the finite-difference chart oracle."""
    assert_reference_matches_finite_differences(CYLINDER_JETS, [1.5, 3.0, 7.0])


def test_bent_profile_reference_matches_finite_differences():
    """A profile whose every component has a second derivative: the
    reference engine agrees with the finite-difference chart oracle."""
    assert_reference_matches_finite_differences(BENT_JETS, [1.5, 3.0, 7.0])


def test_cylinder_reference_is_one_berger_sphere_across_the_edge_radii():
    """A = 1, B = 4, C = 9: the cylinder over the Berger sphere with axes
    3, 3, 2 has the same curvature at every radius.  With n = -2, K = (-1,
    -1, -4/9) and c = (-2/9, -2/9, -7/9), so E = M = N = 0 and P = (4/81,
    4/81, 8/27).  The reference engine gives these on the array of edge
    radii and at each radius alone, bit for bit the same."""
    radii = _edge_radii(10.0)
    want = [[0.0] * 3, [0.0] * 3, [0.0] * 3, [4 / 81, 4 / 81, 8 / 27]]
    shaped = lambda x: np.broadcast_to(x, radii.shape)  # noqa: E731
    got = reference_cartan_coefficients(CYLINDER_JETS, radii, -2.0)
    for g, w in zip(got, want):
        for x, y in zip(g, w):
            assert np.all(np.abs(shaped(x) - y) <= 1e-15), (x, y)
    for r in radii.tolist():
        alone = reference_cartan_coefficients(CYLINDER_JETS, r, -2.0)
        for g, a in zip(got, alone):
            assert all(same_bits(shaped(x), shaped(y)) for x, y in zip(g, a))


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
    # B = 7 - r: b = 7/r^2 - 1/r - 1.
    dent = lambda r: (0.0 * r, 0.0 * r, 7.0 / r**2 - 1.0 / r - 1.0, -14.0 / r**3 + 1.0 / r**2, 42.0 / r**4 - 2.0 / r**3)  # noqa: E731
    negative = RadialProfile("dented", dent, (0.0, math.inf))
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


def count_cutoff_rows(monkeypatch):
    """Record the length of every array of x = r/d the cutoff is evaluated on."""
    sizes = []
    original = curvature._cutoff_row

    def counted(x, work):
        sizes.append(np.size(x))
        return original(x, work)

    monkeypatch.setattr(curvature, "_cutoff_row", counted)
    return sizes


def test_glue_scan_evaluates_the_cutoff_once_per_distinct_row(spec_a, monkeypatch):
    """One cutoff evaluation per distinct r/d row: one 512-radius row for the
    bundled scan, whose d values differ by powers of two, one row per
    annulus for d values in ratio 3, and a row of their own for the radii
    riding in the verify stage's first pass.  A glued profile evaluates the
    cutoff on its radii at its own scale."""
    rows = count_cutoff_rows(monkeypatch)
    glue_ricci_scan([10, 20, 40, 80, 160], grid_points=512)
    assert rows == [512]
    rows.clear()
    glue_ricci_scan([5, 15, 45, 135, 405], grid_points=2048)
    assert rows == [2048] * 5
    rows.clear()
    gluing = spec_a.gluing
    curvature.stage_scans(gluing.ricci_flat_radii, gluing.decay_radii, gluing.d_values, gluing.annulus_grid)
    assert rows == [10, 512]
    rows.clear()
    scales = []
    original = curvature.cutoff
    monkeypatch.setattr(curvature, "cutoff", lambda r, d: scales.append(d) or original(r, d))
    cohomo_curvature(glued_profile(10.0), 13.0)
    assert rows == [1] and scales == [10.0]


def test_power_of_two_annuli_share_their_r_over_d_row():
    """fl(2^k d q) / (2^k d) = fl(d q) / d: the r/d rows of the annuli
    d0 * 2^j, j = 0..4, are bitwise equal for all 49 dense d0, and the rows
    of d values in ratio 3 are not."""
    q = annulus_ratios(2048)
    for k in range(16, 65):
        rows = [(d * q) / d for d in (k / 4 * 2**j for j in range(5))]
        assert all(same_bits(rows[0], row) for row in rows[1:]), k
    assert not np.array_equal((5.0 * q) / 5.0, (15.0 * q) / 15.0)


# ---------------------------------------------------------------------------
# The kernel against the reference engine at 60 digits.


def _edge_radii(d):
    """Radii across the plateaus and the ramp of scale d, with d and 2d exact."""
    return np.concatenate([np.geomspace(1.05, 4.0 * d, 97), [d, 2.0 * d, 1.5 * d]])


SCALES = np.repeat([4.0, 6.5, 10.0, 33.3], 25)
KERNEL_CASES = {
    "eguchi-hanson": (eh_profile(), lambda i: reference_eh_jets, _edge_radii(10.0)),
    "euclidean": (euclidean_profile(), lambda i: reference_euclidean_jets, _edge_radii(10.0)),
    **{
        f"glued-{d:g}": (glued_profile(d), lambda i, d=d: reference_glued_jets(d), _edge_radii(d))
        for d in (4.0, 6.5, 10.0, 33.3)
    },
    # One scale per radius: each block of 25 radii holds d, 2d, both plateaus and the ramp.
    "glued-per-radius": (
        glued_profile(SCALES),
        lambda i: reference_glued_jets(float(SCALES[i])),
        SCALES * np.tile(np.r_[0.5, 0.99, 1.0, np.linspace(1.05, 1.95, 19), 2.0, 2.01, 3.0], 4),
    ),
    # Every radius on one plateau.
    "glued-inner-plateau": (glued_profile(10.0), lambda i: reference_glued_jets(10.0), np.linspace(1.5, 10.0, 9)),
    "glued-outer-plateau": (glued_profile(10.0), lambda i: reference_glued_jets(10.0), np.linspace(20.0, 90.0, 9)),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_matches_the_reference_engine(case):
    """The twelve Cartan coefficients of the kernel, (E0, E0, E1), (M0, M0,
    -2 M0), (-M0, -M0, 2 M0), (P0, P0, P1), agree with the reference
    engine's, run at 60 digits on the same float radii, within 1e-13 of the
    largest coefficient at each radius.  The reference's flat terms of size
    r^-2 cancel to about 1e-60 r^-2 there, hence the 1e-40 r^-2 floor."""
    profile, jets, radii = KERNEL_CASES[case]
    (e0, e1, m0, p0, p1), _, _ = curvature._kernel(profile, radii, curvature._work(11, radii.shape))
    for i, r in enumerate(radii.tolist()):
        got = [e0[i], e0[i], e1[i], m0[i], m0[i], -2.0 * m0[i], -m0[i], -m0[i], 2.0 * m0[i], p0[i], p0[i], p1[i]]
        want = oracle_coefficients(jets(i), r)
        tol = 1e-13 * max(map(abs, want)) + 1e-40 / r**2
        assert all(abs(g - w) <= tol for g, w in zip(got, want)), (r, got, want)


def test_cutoff_matches_the_reference_jet():
    """The closed-form p, p' and p'' equal the reference cutoff's order-2 jet
    to 1e-13 of each one's sup over the ramp, and exactly on the plateaus."""
    for d in (4.0, 10.0, 33.3):
        r = d * np.concatenate([np.linspace(0.3, 1.0, 8), np.linspace(1.0, 2.0, 401), np.linspace(2.0, 5.0, 8)])
        got = cutoff(r, d)
        want = reference_cutoff(Jet.seed(r), d)
        for m, g in enumerate(got):
            w = np.broadcast_to(want.derivative(m), r.shape)
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)), (d, m)
            plateau = (r <= d) | (r >= 2 * d)
            assert np.array_equal(g[plateau], w[plateau]), (d, m)


def test_leading_order_constant_holds_across_large_d():
    """d^6 sup|Ric| over the annulus is one constant to 1e-9 relative for
    d = 2^10 ... 2^14, at one r_sup/d: the remainder is O(d^-4), and the
    kernel's rounding error is a fixed fraction of |Ric| at every d."""
    ds = [2.0**k for k in range(10, 15)]
    scan = glue_ricci_scan(ds, 512)
    scaled = [d**6 * s for d, s in zip(ds, scan.series["sup_ric_annulus"].values)]
    assert max(scaled) / min(scaled) - 1.0 <= 1e-9, scaled
    assert len({r / d for r, d in zip(scan.series["r_sup"].values, ds)}) == 1
    assert 2.8 < scaled[-1] < 2.83


def test_leading_order_constant_holds_up_to_the_largest_scale():
    """d^6 sup|Ric| is one constant to 1e-9 relative for d = 2^60 ... 2^64,
    the largest d value a spec may give: every squared term stays a normal
    double there."""
    ds = [2.0**k for k in range(60, 65)]
    assert ds[-1] == MAX_SCAN_RADIUS
    scan = glue_ricci_scan(ds, 512)
    scaled = [d**6 * s for d, s in zip(ds, scan.series["sup_ric_annulus"].values)]
    assert max(scaled) / min(scaled) - 1.0 <= 1e-9, scaled
    assert 2.8 < scaled[-1] < 2.83


def gate_annuli():
    """(d, grid) of every annulus the gate checks: both bundled specs, the
    49 dense scans and d = 2^10 ... 2^14 on 512 radii."""
    for spec in (example_spec("example-a.spec"), example_spec("example-b.spec")):
        yield from ((d, spec.gluing.annulus_grid) for d in spec.gluing.d_values)
    yield from ((k / 4 * 2**j, 2048) for k in range(16, 65) for j in range(5))
    yield from ((2.0**k, 512) for k in range(10, 15))


def test_kernel_agrees_with_the_60_digit_oracle_on_every_scanned_annulus():
    """Pointwise |Ric| and |Rm| of the glued profile equal the reference
    engine's at 60 digits within 1e-12 of their sup over the annulus, at
    the argmax of |Ric| and three seeded radii of each annulus's grid."""
    rng = np.random.default_rng(19)
    for d, grid_points in gate_annuli():
        grid = d * annulus_ratios(grid_points)
        ric, rm = frame_norms(glued_profile(d), grid)
        picks = [int(np.argmax(ric)), *rng.integers(0, grid_points, 3).tolist()]
        for i in picks:
            want_ric, want_rm = oracle_frame_norms(reference_glued_jets(d), float(grid[i]))
            assert abs(ric[i] - want_ric) <= 1e-12 * ric.max(), (d, grid[i])
            assert abs(rm[i] - want_rm) <= 1e-12 * rm.max(), (d, grid[i])


GOLDEN_SCANS = Path(__file__).resolve().parent / "data" / "golden" / "scan-dense"


def test_every_dense_scan_csv_matches_golden(tmp_path):
    """Both CSV tables of all 49 dense scans the benchmark draws from (d0 = k/4,
    k = 16..64, d = d0 * 2^j, j = 0..4, 2048 radii each: three passes of 2, 2
    and 1 annuli), pinned from the kernel."""
    assert_dense_scan_csvs_match_golden(tmp_path)


def test_dense_scan_csvs_match_golden_with_libm_exp(tmp_path, libm_exp):
    """The 49 dense scans write the same CSVs with the kernel's exp on libm's kernel."""
    assert_dense_scan_csvs_match_golden(tmp_path)
    assert libm_exp.calls > 0


def assert_dense_scan_csvs_match_golden(tmp_path):
    for k in range(16, 65):
        d0 = k / 4
        ds = [d0 * 2**j for j in range(5)]
        scan = glue_ricci_scan(ds, 2048)
        files = pipeline.write_scan_csv(scan, mu_report(scan), tmp_path / f"d0-{d0:g}.scan.csv")
        for f in map(Path, files):
            assert f.read_bytes() == (GOLDEN_SCANS / f.name).read_bytes(), f.name
