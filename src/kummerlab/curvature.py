"""Numerical Riemannian curvature engines and decay-rate scans.

Two independent pipelines compute curvature:

* a generic coordinate-chart engine: 4th-order central differences with one
  Richardson halving applied to the metric components, Christoffel symbols
  from the standard formula, and the curvature tensor assembled with the
  index convention R^l_{ijk} = -d_j G^l_{ik} + d_i G^l_{jk}
  - G^m_{ik} G^l_{jm} + G^m_{jk} G^l_{im} (antisymmetric derivative pair
  first, acted-on index last);

* a cohomogeneity-one engine for metrics A(r) dr^2 + B(r) s3^2
  + C(r)(s1^2 + s2^2) over the left-invariant coframe of the 3-sphere,
  evaluated in closed form from order-2 jets of the radial profiles via the
  Cartan structure equations.

The coframe normalization and the Ricci contraction sign are calibrated
once against two oracles (flat metric in polar form must be flat; the
ALE instanton profile must be Ricci-flat; the round sphere must have
positive Ricci) and the calibration is recorded for reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .jets import Jet

# The most radii one glue-scan pass gathers from whole annuli.  A pass's
# peak memory grows with its radii (about 190 bytes each); its fixed cost
# (about 0.3 ms, 30% of a 1.0-ms pass of 4096, 2-core Xeon VM) does not.
# One pass of 5 x 2048 radii would add 1.9 MiB of peak RSS (see README).
PASS_RADII = 2**12

# ---------------------------------------------------------------------------
# Curvature samples


@dataclass
class CurvatureSample:
    """Orthonormal-frame curvature at one location.

    riemann_frame is stored with the module's index convention (the
    antisymmetric pair in slots 2,3).  pair_residual and bianchi_residual
    are the worst violations of the pair symmetry R_{lijk} = R_{jkli} and
    of the first Bianchi identity (cyclic sum over the last three slots).
    """

    location: object
    riemann_frame: np.ndarray
    rm_norm: float
    ricci_frame: np.ndarray
    ric_norm: float
    pair_residual: float
    bianchi_residual: float


def _sample_from_frame_tensor(location, rm_frame: np.ndarray, ric_sign: int = 1) -> CurvatureSample:
    ric = ric_sign * np.einsum("llik->ik", rm_frame)
    pair = float(np.max(np.abs(rm_frame - np.einsum("jkli->lijk", rm_frame))))
    bianchi = float(
        np.max(
            np.abs(
                rm_frame
                + np.einsum("lijk->ljki", rm_frame)
                + np.einsum("lijk->lkij", rm_frame)
            )
        )
    )
    return CurvatureSample(
        location=location,
        riemann_frame=rm_frame,
        rm_norm=float(np.sqrt(np.sum(rm_frame**2))),
        ricci_frame=ric,
        ric_norm=float(np.sqrt(np.sum(ric**2))),
        pair_residual=pair,
        bianchi_residual=bianchi,
    )


# ---------------------------------------------------------------------------
# Generic chart engine


class NotPositiveDefinite(ValueError):
    pass


@dataclass
class MetricChart:
    """Coordinate chart with an evaluable metric tensor.

    g(x) must return a symmetric positive definite (dim x dim) array for
    every x in the open box.  fd_scale gives per-coordinate length scales
    for the finite-difference step (defaults to 1 in every coordinate).
    """

    dim: int
    g: Callable[[np.ndarray], np.ndarray]
    box: list[tuple[float, float]]
    fd_scale: Callable[[np.ndarray], np.ndarray] | None = None
    fd_step: float = 1e-3
    name: str = "chart"

    def steps(self, x: np.ndarray) -> np.ndarray:
        scale = np.ones(self.dim) if self.fd_scale is None else np.asarray(self.fd_scale(x))
        h = self.fd_step * scale
        if np.any(h <= 0) or np.any(x - 5 * h <= [lo for lo, _ in self.box]) or np.any(
            x + 5 * h >= [hi for _, hi in self.box]
        ):
            raise ValueError(f"point {x} too close to the {self.name} box for differencing")
        return h

    def metric(self, x: np.ndarray) -> np.ndarray:
        gx = np.asarray(self.g(np.asarray(x, dtype=float)), dtype=float)
        try:
            np.linalg.cholesky(gx)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(f"metric not positive definite at {x}") from exc
        return gx


def _stencil_derivative(f, x: np.ndarray, i: int, h: float):
    """4th-order central difference of an array-valued function."""
    def at(offset):
        xs = np.array(x, dtype=float)
        xs[i] += offset
        return f(xs)

    return (-at(2 * h) + 8.0 * at(h) - 8.0 * at(-h) + at(-2 * h)) / (12.0 * h)


def _richardson_derivative(f, x: np.ndarray, i: int, h: float):
    """One Richardson halving on the 4th-order stencil (6th-order result)."""
    coarse = _stencil_derivative(f, x, i, h)
    fine = _stencil_derivative(f, x, i, h / 2.0)
    return (16.0 * fine - coarse) / 15.0


def christoffel(chart: MetricChart, x) -> np.ndarray:
    """Christoffel symbols G[k, i, j] = 1/2 g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)."""
    x = np.asarray(x, dtype=float)
    h = chart.steps(x)
    g0 = chart.metric(x)
    ginv = np.linalg.inv(g0)
    dg = np.stack(
        [_richardson_derivative(chart.metric, x, i, h[i]) for i in range(chart.dim)]
    )  # dg[l, i, j] = d_l g_ij; metric() re-checks positive definiteness per stencil point
    # sym[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    sym = dg + np.einsum("jil->ijl", dg) - np.einsum("lij->ijl", dg)
    return 0.5 * np.einsum("kl,ijl->kij", ginv, sym)


def _riemann_tensor(chart: MetricChart, x: np.ndarray) -> np.ndarray:
    """R^l_{ijk} in the module convention, from differenced Christoffel symbols.

    Shared by riemann() and calibration(), so it must not read the
    calibration record.
    """
    h = chart.steps(x)
    gamma = christoffel(chart, x)
    dgamma = np.stack(
        [_richardson_derivative(lambda p: christoffel(chart, p), x, j, h[j]) for j in range(chart.dim)]
    )  # dgamma[j, l, i, k] = d_j G^l_{ik}
    return (
        -np.einsum("jlik->lijk", dgamma)
        + np.einsum("iljk->lijk", dgamma)
        - np.einsum("mik,ljm->lijk", gamma, gamma)
        + np.einsum("mjk,lim->lijk", gamma, gamma)
    )


def riemann(chart: MetricChart, x, frame: np.ndarray | None = None) -> tuple[np.ndarray, CurvatureSample]:
    """Curvature tensor R^l_{ijk} on the chart plus a frame sample.

    The returned array uses the module convention (derivative pair (i, j)
    first, acted-on index k last); the Ricci contraction R_{ik} = R^l_{lik}
    is sign-calibrated once against the round-sphere oracle.

    frame, when given, is the coframe matrix (rows are the orthonormal
    covectors in chart coordinates); by default the Cholesky coframe of
    g(x) is used.
    """
    x = np.asarray(x, dtype=float)
    riem = _riemann_tensor(chart, x)
    g0 = chart.metric(x)
    lowered = np.einsum("lm,mijk->lijk", g0, riem)
    if frame is None:
        chol = np.linalg.cholesky(g0)
        frame = chol.T  # coframe rows; frame vectors are inv(frame)
    vectors = np.linalg.inv(frame)  # columns are the orthonormal frame vectors
    rm_frame = np.einsum(
        "lijk,la,ib,jc,kd->abcd", lowered, vectors, vectors, vectors, vectors
    )
    sample = _sample_from_frame_tensor(tuple(x), rm_frame, ric_sign=calibration().contraction_sign)
    return riem, sample


# ---------------------------------------------------------------------------
# Radial profiles


def _first_radius(bad, r):
    """The first radius where bad holds (r itself when scalar), or None."""
    if not np.any(bad):
        return None
    return r if np.ndim(r) == 0 else float(r[np.argmax(bad)])


@dataclass
class RadialProfile:
    """Cohomogeneity-one metric data A(r) dr^2 + B(r) s3^2 + C(r)(s1^2+s2^2).

    jets maps a radius jet to the jets of A, B, C, so their derivatives come
    out exactly; the open domain is enforced at evaluation time.  The
    curvature reads A to order 1 and B, C to order 2, so a profile may give
    A only to order 1.
    """

    name: str
    jets: Callable[[Jet], tuple[Jet, Jet, Jet]]
    domain: tuple[float, float]

    def at(self, r) -> tuple[Jet, Jet, Jet]:
        """Jets of A, B, C at a radius, or entrywise at a 1-D array of radii."""
        lo, hi = self.domain
        bad = _first_radius(np.logical_not((lo < r) & (r < hi)), r)
        if bad is not None:
            raise ValueError(f"radius {bad} outside the open domain ({lo}, {hi}) of {self.name}")
        a, b, c = self.jets(Jet.seed(r))
        bad = _first_radius(np.minimum(np.minimum(a.value, b.value), c.value) <= 0.0, r)
        if bad is not None:
            raise ValueError(f"profile {self.name} not positive at r={bad}")
        return a, b, c

    def values(self, r):
        """Values of A, B, C at a radius, or entrywise at a 1-D array of radii."""
        a, b, c = self.at(r)
        return a.value, b.value, c.value


def euclidean_profile() -> RadialProfile:
    return RadialProfile("euclidean", lambda r: (Jet.const(1.0),) + (r**2,) * 2, (0.0, math.inf))


def eh_profile() -> RadialProfile:
    """ALE gravitational-instanton profile: A = 1/(1 - r^-4), B = r^2 (1 - r^-4), C = r^2."""

    def jets(r: Jet) -> tuple[Jet, Jet, Jet]:
        r2 = r**2
        drop = 1.0 - 1.0 / (r2 * r * r)  # r^4 = (r^2 r) r, as r ** 4 builds it
        return 1.0 / drop.truncate(1), r2 * drop, r2

    return RadialProfile("eguchi-hanson", jets, (1.0, math.inf))


# ---------------------------------------------------------------------------
# Cutoff and gluing


def _bump(s: Jet) -> Jet:
    """exp(-1/s) for s > 0, identically zero otherwise, as a jet of s's order.

    exp(-1/s) underflows to exactly 0.0 well before s reaches 1e-6, so the
    entries at or below it are zero jets, masked out of an array jet.
    """
    plateau = s.value <= 1e-6
    if np.all(plateau):
        return Jet.const(0.0)
    if not np.any(plateau):
        return (-1.0 / s).exp()
    safe = Jet((np.where(plateau, 1.0, s.value),) + s.coeffs[1:])
    return Jet(tuple(np.where(plateau, 0.0, c) for c in (-1.0 / safe).exp().coeffs))


@dataclass
class Cutoff:
    """Plateau cutoff: 1 for r <= d, 0 for r >= 2d, smooth in between.

    The plateau values are floating-point exact, and its derivatives come
    out of jets up to the order of the radius jet it is composed with.  d
    is one scale, or a 1-D array holding one scale per radius of the array
    the cutoff is evaluated at; each entry equals the cutoff of its own
    scale bit for bit.
    """

    d: float | np.ndarray

    def jet(self, r) -> Jet:
        """Cutoff jet at a radius or an array of radii, or composed with a radius jet."""
        scaled = (r if isinstance(r, Jet) else Jet.seed(r)) * Jet((1.0 / self.d,))
        num = _bump(2.0 - scaled)
        return num / (num + _bump(scaled - 1.0))


def make_cutoff(d: float) -> Cutoff:
    if d <= 0:
        raise ValueError("cutoff scale d must be positive")
    return Cutoff(d=float(d))


def glued_profile(d) -> RadialProfile:
    """Interpolation rho_d * (instanton profile) + (1 - rho_d) * (flat profile).

    Component-wise: A = rho/(1-r^-4) + (1-rho), B = r^2 (rho (1-r^-4) +
    (1-rho)), C = r^2.  Equal to the instanton profile bitwise for r <= d
    and to (1, r^2, r^2) bitwise for r >= 2d, because the cutoff plateaus
    are exact.  d is one scale or, as for Cutoff, one scale per radius.
    """
    if np.any(np.asarray(d) < 4):
        raise ValueError("gluing requires d >= 4 so the bolt sits inside the plateau")
    if isinstance(d, np.ndarray):
        cut, name = Cutoff(d=d), f"glued(d={d.min():g}..{d.max():g})"
    else:
        cut, name = Cutoff(d=float(d)), f"glued(d={d:g})"

    def jets(r: Jet) -> tuple[Jet, Jet, Jet]:
        p, r2 = cut.jet(r), r**2
        drop, flat = 1.0 - 1.0 / (r2 * r * r), 1.0 - p
        return p.truncate(1) / drop.truncate(1) + flat.truncate(1), r2 * (p * drop + flat), r2

    return RadialProfile(name, jets, (1.0, math.inf))


# ---------------------------------------------------------------------------
# Cohomogeneity-one engine (Cartan structure equations, closed form)


def _cartan_coefficients(profile: RadialProfile, r, n: float):
    """The curvature coefficients (E, M, N, P), three of each, of the profile
    metric with structure constant n, at a radius or at each entry of a
    1-D array of radii.

    The coframe is (sqrt(A) dr, sqrt(C) s1, sqrt(C) s2, sqrt(B) s3) with
    ds1 = n s2^s3 (cyclic).  Connection coefficients follow the standard
    diagonal ansatz; curvature 2-forms are assembled exactly from jets.
    a1 = a2 = sqrt(C) makes the first two of each triple (and K1 = K2, c1 =
    c2) equal bit for bit, as their formulas differ only in the order of
    commuting operands: each is computed once.  A, f0 = sqrt(A) and the legs
    feeding K are carried to order 1, all that is read of them.
    """
    Aj, Bj, Cj = profile.at(r)
    f0 = Aj.truncate(1).sqrt()
    legs = Cj.sqrt(), Bj.sqrt()  # a1 = a2, a3
    # An array jet holds three arrays of the grid's length: drop each jet
    # once the coefficients read below are taken, to keep the peak small.
    del Aj, Bj, Cj

    Ai = [a.deriv_jet() / (f0 * a) for a in legs]
    f0v = f0.value
    Av = [q.value for q in Ai]
    dA = [q.derivative(1) for q in Ai]
    del f0, Ai
    sc, sb = (a.truncate(1) for a in legs)
    del legs
    K = [n * sc / (sc * sb), n * sb / (sc * sc)]  # K1 = K2, K3
    c = [(K[0] + K[1] - K[0]) * 0.5, (K[0] + K[0] - K[1]) * 0.5]  # c1 = c2, c3
    Kv = [q.value for q in K]
    cv = [q.value for q in c]
    dc = [q.derivative(1) for q in c]
    del sc, sb, K, c

    E = [dA[i] / f0v + Av[i] ** 2 for i in range(2)]
    M = [
        Av[0] * Kv[0] - cv[1] * Av[0] - cv[0] * Av[1],
        Av[1] * Kv[1] - cv[0] * Av[0] - cv[0] * Av[0],
    ]
    N = [dc[i] / f0v + cv[i] * Av[i] for i in range(2)]
    P = [
        cv[0] * Kv[0] - Av[0] * Av[1] - cv[0] * cv[1],
        cv[1] * Kv[1] - Av[0] * Av[0] - cv[0] * cv[0],
    ]
    return tuple([q[0], q[0], q[1]] for q in (E, M, N, P))


def _cohomo_frame_tensor(profile: RadialProfile, r: float, n: float) -> np.ndarray:
    """Frame curvature tensor, in the module convention, of the profile
    metric with structure constant n."""
    E, M, N, P = _cartan_coefficients(profile, r, n)
    w = np.zeros((4, 4, 4, 4))

    def put(a_, b_, c_, d_, val):
        w[a_, b_, c_, d_] = val
        w[a_, b_, d_, c_] = -val
        w[b_, a_, c_, d_] = -val
        w[b_, a_, d_, c_] = val

    # Curvature 2-forms Omega_{ab} = 1/2 W_{abcd} e^c ^ e^d:
    put(1, 0, 0, 1, E[0]); put(1, 0, 2, 3, M[0])
    put(2, 0, 0, 2, E[1]); put(2, 0, 3, 1, M[1])
    put(3, 0, 0, 3, E[2]); put(3, 0, 1, 2, M[2])
    put(2, 3, 0, 1, N[0]); put(2, 3, 2, 3, P[0])
    put(3, 1, 0, 2, N[1]); put(3, 1, 3, 1, P[1])
    put(1, 2, 0, 3, N[2]); put(1, 2, 1, 2, P[2])
    # Reindex the Cartan tensor into the module convention (pair first).
    return np.einsum("lkij->lijk", w)


def cohomo_curvature(profile: RadialProfile, r: float) -> CurvatureSample:
    """Orthonormal-frame curvature sample of the profile metric at radius r."""
    cal = calibration()
    return _sample_from_frame_tensor(
        r, _cohomo_frame_tensor(profile, r, cal.structure_constant), ric_sign=cal.contraction_sign
    )


# ---------------------------------------------------------------------------
# Euler-angle chart of the profile metrics and the coframe for comparisons


def euler_chart(profile: RadialProfile, r_margin: float = 0.1) -> MetricChart:
    """Coordinate chart (r, theta, phi, psi) of a cohomogeneity-one metric.

    Realizes the left-invariant coframe in half-angle Euler form, so the
    metric matrix is

        diag(A, C/4) in (r, theta), and in (phi, psi):
        [[ (C sin^2 th + B cos^2 th)/4,  B cos th / 4 ],
         [  B cos th / 4,                B/4          ]].
    """

    def g(x):
        r_, th = x[0], x[1]
        a, b, c = profile.values(float(r_))
        st, ct = math.sin(th), math.cos(th)
        out = np.zeros((4, 4))
        out[0, 0] = a
        out[1, 1] = c / 4.0
        out[2, 2] = (c * st * st + b * ct * ct) / 4.0
        out[2, 3] = out[3, 2] = b * ct / 4.0
        out[3, 3] = b / 4.0
        return out

    lo = profile.domain[0] + r_margin
    return MetricChart(
        dim=4,
        g=g,
        box=[(lo, profile.domain[1]), (0.2, math.pi - 0.2), (-8.0, 8.0), (-8.0, 8.0)],
        fd_scale=lambda x: np.array([max(x[0], 1.0), 1.0, 1.0, 1.0]),
        name=f"euler-chart({profile.name})",
    )


def euler_coframe(profile: RadialProfile, x) -> np.ndarray:
    """Orthonormal coframe rows matching the cohomogeneity-one engine frame."""
    r_, th, _phi, psi = [float(v) for v in x]
    a, b, c = profile.values(r_)
    sa, sb, sc = math.sqrt(a), math.sqrt(b), math.sqrt(c)
    st, ct = math.sin(th), math.cos(th)
    sp, cp = math.sin(psi), math.cos(psi)
    return np.array(
        [
            [sa, 0.0, 0.0, 0.0],
            [0.0, sc * cp / 2.0, sc * sp * st / 2.0, 0.0],
            [0.0, -sc * sp / 2.0, sc * cp * st / 2.0, 0.0],
            [0.0, 0.0, sb * ct / 2.0, sb / 2.0],
        ]
    )


def sphere_chart(radius: float) -> MetricChart:
    """Round 2-sphere of the given radius in polar coordinates (theta, phi)."""

    def g(x):
        th = x[0]
        return np.array(
            [[radius**2, 0.0], [0.0, radius**2 * math.sin(th) ** 2]]
        )

    return MetricChart(
        dim=2,
        g=g,
        box=[(0.2, math.pi - 0.2), (-8.0, 8.0)],
        name=f"sphere(a={radius:g})",
    )


def euclidean_chart(dim: int) -> MetricChart:
    return MetricChart(
        dim=dim,
        g=lambda x: np.eye(dim),
        box=[(-100.0, 100.0)] * dim,
        name=f"euclidean({dim})",
    )


# ---------------------------------------------------------------------------
# Calibration


@dataclass(frozen=True)
class CalibrationRecord:
    structure_constant: float
    coframe_normalization: str
    contraction_sign: int
    sphere_ricci_positive: bool
    flat_residual: float
    instanton_ricci_residual: float


@lru_cache(maxsize=1)
def calibration() -> CalibrationRecord:
    """Pin the coframe normalization and the Ricci contraction sign.

    Normalization: among the candidate structure constants (half-angle
    coframe: ds_i = -2 s_j^s_k; unit coframe: ds_i = -s_j^s_k), keep the
    one making the flat polar profile flat and the instanton profile
    Ricci-flat to 1e-6.  Contraction: the round-sphere Ricci must come out
    positive under R_{ik} = R^l_{lik}; flip the sign otherwise.
    """
    flat = euclidean_profile()
    ale = eh_profile()
    chosen = None
    flat_res = math.inf
    ric_res = math.inf
    for n in (-2.0, -1.0):
        fr = float(_frame_norms(flat, (0.7, 2.0, 11.0), n)[1].max())
        rr = float(_frame_norms(ale, (1.5, 3.0, 9.0), n)[0].max())
        if fr < 1e-6 and rr < 1e-6:
            chosen, flat_res, ric_res = n, fr, rr
            break
    if chosen is None:
        raise RuntimeError("coframe calibration failed: no candidate normalization passed")

    ric = np.einsum("llik->ik", _riemann_tensor(sphere_chart(2.0), np.array([1.0, 0.3])))
    positive = bool(ric[0, 0] > 0 and ric[1, 1] > 0)
    sign = 1 if positive else -1
    return CalibrationRecord(
        structure_constant=chosen,
        coframe_normalization="half-angle" if chosen == -2.0 else "unit",
        contraction_sign=sign,
        sphere_ricci_positive=positive,
        flat_residual=flat_res,
        instanton_ricci_residual=ric_res,
    )


# ---------------------------------------------------------------------------
# Scans and fits


@dataclass
class ScanSeries:
    name: str
    values: list[float]
    slope: float | None = None
    intercept: float | None = None
    residual: float | None = None


@dataclass
class ScanResult:
    parameter_name: str
    parameters: list[float]
    series: dict[str, ScanSeries] = field(default_factory=dict)

    def add(self, name: str, values: list[float], fit: bool = True) -> ScanSeries:
        s = ScanSeries(name=name, values=list(values))
        if fit:
            fitted = fit_loglog(self.parameters, values)
            if fitted is not None:
                s.slope, s.intercept, s.residual = fitted
        self.series[name] = s
        return s


def fit_loglog(xs, ys) -> tuple[float, float, float] | None:
    """Least-squares slope of log y against log x.

    Returns None (the NULL marker) when the data is degenerate: fewer than
    4 points is an error, nonpositive values cannot be fitted.
    """
    if len(xs) < 4 or len(ys) != len(xs):
        raise ValueError("log-log fit needs at least 4 points")
    if any(y <= 0 for y in ys):
        return None
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.sqrt(np.mean((slope * lx + intercept - ly) ** 2)))
    return float(slope), float(intercept), residual


def _require_geometric(values, label: str) -> None:
    if len(values) < 4:
        raise ValueError(f"{label} needs at least 4 geometrically spaced points")
    ratios = [values[i + 1] / values[i] for i in range(len(values) - 1)]
    if any(r <= 1 for r in ratios) or max(ratios) / min(ratios) > 1 + 1e-9:
        raise ValueError(f"{label} must be strictly increasing with constant ratio")


def decay_scan(profile: RadialProfile, radii) -> ScanResult:
    """Deviation from the flat profile and |Rm| along a geometric radius grid.

    Deviation is measured in the flat-profile orthonormal coframe, where
    the metric components are (A, C/r^2, C/r^2, B/r^2) against 1.  All
    radii share one array pass of the closed-form norms.
    """
    radii = [float(r) for r in radii]
    _require_geometric(radii, "decay scan radii")
    grid = np.array(radii)
    jets = profile.at(grid)
    # A component constant in r (the flat profile's A) has a float value.
    a, b, c = (np.broadcast_to(q.value, grid.shape).tolist() for q in jets)
    # r**2 on a float, as on the scalar path: an array squares as r*r.
    devs = [
        max(abs(ai - 1.0), abs(bi / r**2 - 1.0), abs(ci / r**2 - 1.0))
        for r, ai, bi, ci in zip(radii, a, b, c)
    ]
    out = ScanResult(parameter_name="r", parameters=radii)
    out.add("metric_deviation", devs)
    # |Rm| off the same evaluation: a profile that returns the jets just taken.
    evaluated = RadialProfile(profile.name, lambda _: jets, profile.domain)
    out.add("rm_norm", frame_norms(evaluated, grid)[1].tolist())
    return out


def frame_norms(profile: RadialProfile, radii) -> tuple[np.ndarray, np.ndarray]:
    """|Ric| and |Rm| of the profile metric at each of a 1-D sequence of
    radii, in one array-jet pass.

    Closed form from the Cartan coefficients, with no frame tensor: the
    tensor holds each of the 12 coefficients in four entries, and its Ricci
    contraction is diagonal, diag(-E1-E2-E3, -E1+P2+P3, -E2+P1+P3,
    -E3+P1+P2) up to the contraction sign, summed here in the order of the
    dense contraction, so |Ric| equals cohomo_curvature's bit for bit; |Rm|
    sums its squares in another order and may differ in the last bit.  Equal
    coefficients and Ricci entries are squared once.  A profile constant in
    r gives float coefficients, broadcast to the radii.
    """
    return _frame_norms(profile, radii, calibration().structure_constant)


def _frame_norms(profile: RadialProfile, radii, n: float) -> tuple[np.ndarray, np.ndarray]:
    """frame_norms with the structure constant n given, as calibration() needs."""
    radii = np.asarray(radii, dtype=float)
    E, M, N, P = _cartan_coefficients(profile, radii, n)
    ric0, ric12, ric3 = -E[0] - E[1] - E[2], P[2] - E[0] + P[1], P[1] - E[2] + P[0]
    sq12 = ric12 * ric12
    ric_norm = np.sqrt((ric0 * ric0 + sq12) + (sq12 + ric3 * ric3))
    squares = [sq for q in (E, M, N, P) for sq in (q[0] * q[0],) * 2 + (q[2] * q[2],)]
    rm_norm = np.sqrt(4.0 * sum(squares[1:], squares[0]))
    return np.full(radii.shape, ric_norm), np.full(radii.shape, rm_norm)


def glue_ricci_scan(d_values, grid_points: int = 512) -> ScanResult:
    """Sup of |Ric| (and |Rm|) of the glued profile over the annulus [d, 2d].

    The sup is taken on a geometric r-grid per d; the argmax radius (the
    first one, on ties) is reported alongside.  The grids of consecutive
    annuli are concatenated, with the cutoff scale carried per radius, and
    evaluated in one array-jet pass of max(1, PASS_RADII // grid_points)
    whole annuli, so a pass is never larger than one annulus or PASS_RADII.
    |Ric| and |Rm| are read in closed form off the Cartan coefficients,
    with no dense frame tensor.  Example-a's scan (five d values, 512 radii
    each, one pass) takes about 0.9 ms, against 2.6 ms for one pass per
    annulus and 0.56 s for one scalar-jet curvature sample per radius; five
    d values of 2048 radii (three passes) take about 3.3 ms (2-core Xeon VM).
    """
    d_values = [float(d) for d in d_values]
    _require_geometric(d_values, "gluing scan d values")
    if any(d < 4 for d in d_values):
        raise ValueError("gluing requires d >= 4")
    per_pass = max(1, PASS_RADII // grid_points)
    rows = []
    for start in range(0, len(d_values), per_pass):
        ds = np.array(d_values[start:start + per_pass])
        grid = np.geomspace(ds, 2.0 * ds, grid_points, axis=1).ravel()
        ric, rm = frame_norms(glued_profile(np.repeat(ds, grid_points)), grid)
        for lo in range(0, len(grid), grid_points):
            annulus = slice(lo, lo + grid_points)
            best = lo + int(np.argmax(ric[annulus]))
            rows.append((float(grid[best]), float(ric[best]), float(rm[annulus].max())))
    out = ScanResult(parameter_name="d", parameters=d_values)
    out.add("r_sup", [r[0] for r in rows], fit=False)
    out.add("sup_ric_annulus", [r[1] for r in rows])
    out.add("sup_rm_annulus", [r[2] for r in rows], fit=False)
    return out


DIAM_BOUND_FORMULA = "diam_bound(d) = 1 + 2*(2d + 2)/(20d)"


def diam_bound(d: float) -> float:
    """Conservative diameter bound after the 1/(20d) rescale.

    The flat part is normalized to diameter 1; a path additionally enters
    and leaves at most two grafted caps of radial length <= 2d + 2 before
    rescaling.
    """
    return 1.0 + 2.0 * (2.0 * d + 2.0) / (20.0 * d)


def mu_report(scan: ScanResult, d_values) -> ScanResult:
    """Rescaled curvature bound, diameter bound, and the almost-flatness proxy.

    Scaling a metric by c^2 = (20d)^2 multiplies the sup norm of Ricci by
    c^-2, so the rescaled sup is (20d)^2 sup|Ric|; the proxy is that times
    the squared diameter bound, expected to fall like d^-4.
    """
    d_values = [float(d) for d in d_values]
    if scan.parameters != d_values:
        raise ValueError("mu report must consume the scan it rescales")
    sup = scan.series["sup_ric_annulus"].values
    rescaled = [(20.0 * d) ** 2 * s for d, s in zip(d_values, sup)]
    diams = [diam_bound(d) for d in d_values]
    mus = [rs * dm**2 for rs, dm in zip(rescaled, diams)]
    out = ScanResult(parameter_name="d", parameters=d_values)
    out.add("rescaled_sup_ric", rescaled)
    out.add("diam_bound", diams, fit=False)
    out.add("mu_proxy", mus)
    return out
