"""Numerical Riemannian curvature engines and decay-rate scans.

Two independent pipelines compute curvature:

* a generic coordinate-chart engine: 4th-order central differences with one
  Richardson halving applied to the metric components, Christoffel symbols
  from the standard formula, and the curvature tensor assembled with the
  index convention R^l_{ijk} = -d_j G^l_{ik} + d_i G^l_{jk}
  - G^m_{ik} G^l_{jm} + G^m_{jk} G^l_{im} (antisymmetric derivative pair
  first, acted-on index last);

* a closed-form array kernel for the cohomogeneity-one metrics
  A dr^2 + B s3^2 + C (s1^2 + s2^2) over the left-invariant coframe of the
  3-sphere, written as a perturbation of the flat metric in polar form:
  A = 1 + a, B = r^2 (1 + b), C = r^2.

Both engines use two fixed conventions, recorded in every report by
calibration(): the half-angle coframe, ds_i = n s_j^s_k (cyclic) with
n = -2, and the Ricci contraction R_{ik} = R^l_{lik}, positive on the round
sphere.  The tests derive both from oracles: the flat metric in polar form
must be flat and the ALE instanton profile Ricci-flat, and the round
sphere's Ricci must come out positive.

The kernel.  On the coframe e0 = sqrt(A) dr, e1 = sqrt(C) s1, e2 =
sqrt(C) s2, e3 = sqrt(B) s3, with legs l1 = l2 = sqrt(C), l3 = sqrt(B),
the Cartan structure equations of the diagonal ansatz give the connection
data A_i = l_i' / (sqrt(A) l_i), K_i = n l_i / (l_j l_k) and
c_i = (K_j + K_k - K_i) / 2, and the curvature 2-forms hold twelve
coefficients, (i, j, k) cyclic:

    E_i = A_i' / sqrt(A) + A_i^2          M_i = A_i K_i - c_k A_j - c_j A_k
    N_i = c_i' / sqrt(A) + c_i A_i        P_i = c_i K_i - A_j A_k - c_j c_k

With phi^2 = 1/(1 + a), beta = sqrt(1 + b) (so sqrt(B) = r beta) and
gamma = beta'/beta = b' / (2 (1 + b)): A_1 = A_2 = phi/r, A_3 = phi (1/r +
gamma), K_1 = K_2 = n/(r beta), K_3 = n beta/r, c_1 = c_2 = n beta/(2r) and
c_3 = n/(r beta) - n beta/(2r).  Index 1 and 2 agree, so each quantity has
two values, written with subscripts 0 (for 1 and 2) and 1 (for 3):

    E0 = phi phi'/r = (phi^2)'/(2r)
    E1 = (phi^2)'/2 (1/r + gamma) + phi^2 (gamma' + 2 gamma/r + gamma^2)
    M0 = -n phi beta'/(2r),  M1 = n phi beta'/r,  N0 = -M0,  N1 = -M1
    P0 = n^2 beta^2/(4 r^2) - phi^2/r^2 - phi^2 gamma/r
    P1 = (n^2 - 3 n^2 beta^2/4 - phi^2)/r^2

and with n = -2 the flat terms cancel on paper: n^2 beta^2/4 - phi^2 =
(1 + b) - (1 - a phi^2) and n^2 - 3 n^2 beta^2/4 - phi^2 = a phi^2 - 3b,
so that

    M0 = phi beta'/r = -M1/2 = -N0 = N1/2
    P0 = (b + a phi^2)/r^2 - phi^2 gamma/r,  P1 = (a phi^2 - 3b)/r^2

with (phi^2)' = -a' phi^4 and gamma' = b''/(2 (1 + b)) - 2 gamma^2.  Every
coefficient is a sum of terms at least linear in (a, a', b, b', b''): the
flat profile gives exactly zero, and on the glued profile's annulus,
where a and b are of size d^-4, the terms are of the size of |Ric| itself,
d^-6, and cancel by factors of order one, not by d^4.  The former engine
summed order-2 jets of A, B and C, terms of size r^-2, and lost about four
digits per decade of d; it is kept in the tests as the reference, run at
60 digits as the oracle.

The kernel, its norms and the perturbations they read evaluate their
formulas in place: each writes into the rows of a work array its caller
passes, with ufunc out= arguments, instead of making one temporary per
operation (a glue-scan pass uses one work array of 17 rows).  Each
rounding is the one the formula as written makes, on the same operands in
the same order (a sign moves between factors only where negation is
exact), so every value keeps its bits.  The glue scan evaluates the
cutoff once per distinct row x = r/d of its annulus grids r = d q:
annuli whose d differ by a power of two share the row bit for bit, since
scaling by 2^k is exact away from overflow, fl(2^k d q) / (2^k d) =
fl(d q) / d.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np


# The most radii one glue-scan pass gathers from whole annuli.  A pass's
# work array holds 17 rows of its radii (traced peak about 155 bytes a
# radius); its fixed cost (about 0.09 ms, a pass of 4 radii) does not grow
# with them.  Per radius, a repeated pass costs 159 ns at 1024 radii, 93 at
# 2048, 64 at 4096, 55 at 6144, 51 at 8192 and 47 at 16384 (medians of
# passes of two annuli, 2-core Xeon VM), with no page faults at any size
# (see _glue_pass).  4096 keeps a pass's work array near half a MiB; larger
# passes would still save about a fifth per radius.  The verify stage's
# instanton and decay radii (ten on the bundled specs) ride in the first
# pass on top of its annuli, so its whole curvature section is one pass on
# the bundled specs and three at 5 x 2048.
PASS_RADII = 2**12

# The structure constant n of the half-angle coframe of the 3-sphere:
# ds_i = n s_j^s_k (cyclic).  The unit coframe's n = -1 leaves the flat
# polar profile curved.
STRUCTURE_CONSTANT = -2.0

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

    riemann_frame: np.ndarray
    rm_norm: float
    ricci_frame: np.ndarray
    ric_norm: float
    pair_residual: float
    bianchi_residual: float


def _sample_from_frame_tensor(rm_frame: np.ndarray) -> CurvatureSample:
    ric = np.einsum("llik->ik", rm_frame)
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


def riemann(chart: MetricChart, x, frame: np.ndarray | None = None) -> tuple[np.ndarray, CurvatureSample]:
    """Curvature tensor R^l_{ijk} on the chart plus a frame sample.

    The returned array uses the module convention (derivative pair (i, j)
    first, acted-on index k last), from differenced Christoffel symbols;
    the sample's Ricci tensor is the contraction R_{ik} = R^l_{lik}.

    frame, when given, is the coframe matrix (rows are the orthonormal
    covectors in chart coordinates); by default the Cholesky coframe of
    g(x) is used.
    """
    x = np.asarray(x, dtype=float)
    h = chart.steps(x)
    gamma = christoffel(chart, x)
    dgamma = np.stack(
        [_richardson_derivative(lambda p: christoffel(chart, p), x, j, h[j]) for j in range(chart.dim)]
    )  # dgamma[j, l, i, k] = d_j G^l_{ik}
    riem = (
        -np.einsum("jlik->lijk", dgamma)
        + np.einsum("iljk->lijk", dgamma)
        - np.einsum("mik,ljm->lijk", gamma, gamma)
        + np.einsum("mjk,lim->lijk", gamma, gamma)
    )
    g0 = chart.metric(x)
    lowered = np.einsum("lm,mijk->lijk", g0, riem)
    if frame is None:
        chol = np.linalg.cholesky(g0)
        frame = chol.T  # coframe rows; frame vectors are inv(frame)
    vectors = np.linalg.inv(frame)  # columns are the orthonormal frame vectors
    rm_frame = np.einsum(
        "lijk,la,ib,jc,kd->abcd", lowered, vectors, vectors, vectors, vectors
    )
    return riem, _sample_from_frame_tensor(rm_frame)


# ---------------------------------------------------------------------------
# Radial profiles


def _radii(r) -> np.ndarray:
    """A radius or a sequence of radii as a 1-D float array."""
    return np.atleast_1d(np.asarray(r, dtype=float))


def _first_radius(bad, r: np.ndarray):
    """The first radius where bad holds, or None."""
    return float(r[np.argmax(bad)]) if np.any(bad) else None


@dataclass
class RadialProfile:
    """The metric A(r) dr^2 + B(r) s3^2 + C(r)(s1^2 + s2^2) with A = 1 + a,
    B = r^2 (1 + b) and C = r^2: the flat metric in polar form and its
    perturbation (a, b).

    perturbation maps a 1-D array of radii to the arrays (a, a', b, b', b''),
    all the curvature reads.  The open domain and positivity (a, b > -1) are
    enforced at evaluation time.
    """

    name: str
    perturbation: Callable[[np.ndarray], tuple]
    domain: tuple[float, float]

    def at(self, r: np.ndarray) -> tuple:
        """(a, a', b, b', b'') at a 1-D array of radii.

        Each guard clears the common case with one reduction and builds its
        mask of bad radii only when that fails.
        """
        lo, hi = self.domain
        if not (np.minimum.reduce(r, initial=math.inf) > lo and np.maximum.reduce(r, initial=-math.inf) < hi):
            bad = _first_radius(np.logical_not((lo < r) & (r < hi)), r)
            if bad is not None:
                raise ValueError(f"radius {bad} outside the open domain ({lo}, {hi}) of {self.name}")
        out = self.perturbation(r)
        a, b = out[0], out[2]
        if not min(np.minimum.reduce(a, initial=math.inf), np.minimum.reduce(b, initial=math.inf)) > -1.0:
            bad = _first_radius((a <= -1.0) | (b <= -1.0), r)
            if bad is not None:
                raise ValueError(f"profile {self.name} not positive at r={bad}")
        return out

    def values(self, r):
        """A, B, C at a radius, or entrywise at a 1-D array of radii."""
        rs = _radii(r)
        a, _, b = self.at(rs)[:3]
        out = 1.0 + a, rs * rs * (1.0 + b), rs * rs
        return out if np.ndim(r) else tuple(float(q[0]) for q in out)


def euclidean_profile() -> RadialProfile:
    return RadialProfile("euclidean", lambda r: (np.zeros_like(r),) * 5, (0.0, math.inf))


def _work(k: int, shape) -> np.ndarray:
    """k fresh float rows of the given shape, as one array.

    The in-place formulas below take such an array, or a list of such
    rows, write their results into its first rows and use the rest as
    scratch.
    """
    return np.empty((k, *shape))


def _instanton(r: np.ndarray, work: np.ndarray) -> np.ndarray:
    """(a, a', b, b', b'') of the instanton, a = s/(1 - s), b = -s with
    s = r^-4, in the five rows of work."""
    out = work[:5]
    a, da, b, db, d2b = out
    r2 = np.multiply(r, r, out=d2b)
    s = np.divide(1.0, np.multiply(r2, r2, out=b), out=b)
    ds = np.divide(np.multiply(-4.0, s, out=db), r, out=db)
    np.divide(np.multiply(-20.0, s, out=da), r2, out=d2b)  # b'' = (-20 s) / r2
    rest = np.subtract(1.0, s, out=a)
    np.divide(ds, np.multiply(rest, rest, out=da), out=da)  # a' = s' / (rest rest)
    np.divide(s, rest, out=a)
    np.negative(s, out=b)
    np.negative(ds, out=db)
    return out


def eh_profile() -> RadialProfile:
    """ALE gravitational-instanton profile: A = 1/(1 - r^-4), B = r^2 (1 - r^-4), C = r^2."""
    return RadialProfile("eguchi-hanson", lambda r: _instanton(r, _work(5, np.shape(r))), (1.0, math.inf))


# ---------------------------------------------------------------------------
# Cutoff and gluing


def cutoff(r, d) -> tuple:
    """The plateau cutoff p = f(2 - x) / (f(2 - x) + f(x - 1)), x = r/d,
    f(t) = exp(-1/t), and its first two radial derivatives: 1 for r <= d,
    0 for r >= 2d, smooth in between.  d is one scale, or one scale per
    radius.  The derivatives are _cutoff_row's at x divided by d and d^2.
    """
    p, dp, d2p = _cutoff_row(r / d, _work(7, np.shape(r)))
    np.divide(dp, d, out=dp)
    np.divide(d2p, d * d, out=d2p)
    return p, dp, d2p


def _cutoff_row(x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """p, dp/dx and d2p/dx2 of the cutoff at an array of x = r/d, in the
    first three of the seven rows of work.

    With u = 2 - x, v = x - 1, q = 1 - p = f(v)/(f(u) + f(v)) and
    w = u^-2 + v^-2: dp/dx = -p q w and d2p/dx2 = p q (w^2 (q - p)
    - 2 (u^-3 - v^-3)).  u and v are clamped at 1e-6, where f underflows
    to 0.0, so the plateaus hold p = 1 or 0 and zero derivatives exactly,
    with no mask.
    """
    p, dp, d2p, iu, iv, q, t = work[:7]
    np.divide(1.0, np.maximum(np.subtract(2.0, x, out=iu), 1e-6, out=iu), out=iu)
    np.divide(1.0, np.maximum(np.subtract(x, 1.0, out=iv), 1e-6, out=iv), out=iv)
    total = np.add(np.exp(np.negative(iu, out=p), out=p), np.exp(np.negative(iv, out=q), out=q), out=t)
    np.divide(p, total, out=p)
    np.divide(q, total, out=q)
    pq = np.multiply(p, q, out=d2p)
    iu2, iv2 = np.multiply(iu, iu, out=dp), np.multiply(iv, iv, out=t)
    c = np.subtract(np.multiply(iu2, iu, out=iu), np.multiply(iv2, iv, out=iv), out=iu)
    np.multiply(2.0, c, out=c)  # c = 2 (iu iu iu - iv iv iv)
    w = np.add(iu2, iv2, out=dp)
    np.subtract(np.multiply(np.multiply(w, w, out=t), np.subtract(q, p, out=q), out=t), c, out=t)
    npq = np.negative(pq, out=q)
    np.multiply(pq, t, out=d2p)  # pq (w w (q - p) - c)
    np.multiply(npq, w, out=dp)  # (-pq) w
    return work[:3]


def _glued(r: np.ndarray, p, dp, d2p, work: np.ndarray) -> np.ndarray:
    """The glued perturbation at radii r from the cutoff's p, p' and p''
    there: p times the instanton's (a, a', b, b', b''), with the product
    rule, in the first five of the seven rows of work."""
    out = _instanton(r, work)
    a, da, b, db, d2b = out
    t, u = work[5:7]
    np.add(np.multiply(d2p, b, out=t), np.multiply(np.multiply(2.0, dp, out=u), db, out=u), out=t)
    np.add(t, np.multiply(p, d2b, out=d2b), out=d2b)  # b'' = (p'' b + (2 p') b') + p b''
    np.add(np.multiply(dp, b, out=t), np.multiply(p, db, out=db), out=db)
    np.multiply(p, b, out=b)
    np.add(np.multiply(dp, a, out=t), np.multiply(p, da, out=da), out=da)
    np.multiply(p, a, out=a)
    return out


def glued_profile(d) -> RadialProfile:
    """Interpolation p * (instanton profile) + (1 - p) * (flat profile), p the cutoff of scale d.

    The perturbation is the cutoff times the instanton's: a = p s/(1 - s),
    b = -p s.  Equal to the instanton profile bitwise for r <= d and to the
    flat profile for r >= 2d, because the cutoff plateaus are exact.  d is
    one scale or, as for cutoff, one scale per radius.
    """
    if np.any(np.asarray(d) < 4):
        raise ValueError("gluing requires d >= 4 so the bolt sits inside the plateau")
    if isinstance(d, np.ndarray):
        name = f"glued(d={d.min():g}..{d.max():g})"
    else:
        d = float(d)
        name = f"glued(d={d:g})"
    return RadialProfile(name, lambda r: _glued(r, *cutoff(r, d), _work(7, np.shape(r))), (1.0, math.inf))


# ---------------------------------------------------------------------------
# The curvature kernel


def _kernel(profile: RadialProfile, r: np.ndarray, work: np.ndarray) -> tuple:
    """The curvature coefficients (E0, E1, M0, P0, P1) of the profile at a
    1-D array of radii, in the first five of the eleven rows of work, and
    its a and b there (see the module docstring)."""
    a, da, b, db, d2b = profile.at(r)
    e0, e1, m0, p0, p1, phi2, beta2, gamma, ir, t, u = work[:11]
    np.divide(1.0, np.add(1.0, a, out=phi2), out=phi2)
    np.add(1.0, b, out=beta2)
    np.divide(np.multiply(0.5, db, out=gamma), beta2, out=gamma)
    np.divide(1.0, r, out=ir)
    # h = 0.5 (((-a') phi2) phi2), half of (phi^2)', as (-0.5) ((a' phi2) phi2):
    # a negation is exact, so the sign moves between factors with no rounding.
    h = np.multiply(-0.5, np.multiply(np.multiply(da, phi2, out=t), phi2, out=t), out=t)
    np.multiply(h, ir, out=e0)
    np.multiply(h, np.add(ir, gamma, out=e1), out=e1)
    # E1 = h (ir + gamma) + phi2 (gamma' + gamma ((2 ir) + gamma)),
    # gamma' = (0.5 b'') / beta2 - (2 gamma) gamma
    dgamma = np.subtract(np.divide(np.multiply(0.5, d2b, out=t), beta2, out=t),
                         np.multiply(np.multiply(2.0, gamma, out=u), gamma, out=u), out=t)
    np.multiply(gamma, np.add(np.multiply(2.0, ir, out=u), gamma, out=u), out=u)
    np.add(e1, np.multiply(phi2, np.add(dgamma, u, out=u), out=u), out=e1)
    np.multiply(np.multiply(np.sqrt(np.multiply(phi2, beta2, out=m0), out=m0), gamma, out=m0), ir, out=m0)
    # P0 = ((b + a phi2) ir) ir - (phi2 gamma) ir; P1 = ((a phi2 - 3 b) ir) ir
    aphi2 = np.multiply(a, phi2, out=p1)
    np.multiply(np.multiply(np.add(b, aphi2, out=p0), ir, out=p0), ir, out=p0)
    np.subtract(p0, np.multiply(np.multiply(phi2, gamma, out=t), ir, out=t), out=p0)
    np.multiply(np.multiply(np.subtract(aphi2, np.multiply(3.0, b, out=t), out=p1), ir, out=p1), ir, out=p1)
    return (e0, e1, m0, p0, p1), a, b


def _sample_from_coefficients(E, M, N, P) -> CurvatureSample:
    """The frame sample of the curvature 2-forms Omega_{ab} = 1/2 W_{abcd}
    e^c ^ e^d with the coefficient triples E, M, N, P."""
    w = np.zeros((4, 4, 4, 4))

    def put(a_, b_, c_, d_, val):
        w[a_, b_, c_, d_] = val
        w[a_, b_, d_, c_] = -val
        w[b_, a_, c_, d_] = -val
        w[b_, a_, d_, c_] = val

    put(1, 0, 0, 1, E[0]); put(1, 0, 2, 3, M[0])
    put(2, 0, 0, 2, E[1]); put(2, 0, 3, 1, M[1])
    put(3, 0, 0, 3, E[2]); put(3, 0, 1, 2, M[2])
    put(2, 3, 0, 1, N[0]); put(2, 3, 2, 3, P[0])
    put(3, 1, 0, 2, N[1]); put(3, 1, 3, 1, P[1])
    put(1, 2, 0, 3, N[2]); put(1, 2, 1, 2, P[2])
    # Reindex the Cartan tensor into the module convention (pair first).
    return _sample_from_frame_tensor(np.einsum("lkij->lijk", w))


def cohomo_curvature(profile: RadialProfile, r: float) -> CurvatureSample:
    """Orthonormal-frame curvature sample of the profile metric at radius r."""
    rs = _radii(r)
    (e0, e1, m0, p0, p1), _, _ = _kernel(profile, rs, _work(11, rs.shape))
    e0, e1, m0, p0, p1 = (float(q[0]) for q in (e0, e1, m0, p0, p1))
    return _sample_from_coefficients([e0, e0, e1], [m0, m0, -2.0 * m0], [-m0, -m0, 2.0 * m0], [p0, p0, p1])


# ---------------------------------------------------------------------------
# Euler-angle chart of the profile metrics and the coframe for comparisons


def euler_chart(profile: RadialProfile) -> MetricChart:
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

    return MetricChart(
        dim=4,
        g=g,
        box=[(profile.domain[0] + 0.1, profile.domain[1]), (0.2, math.pi - 0.2), (-8.0, 8.0), (-8.0, 8.0)],
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
# The conventions' record


@dataclass(frozen=True)
class CalibrationRecord:
    structure_constant: float
    coframe_normalization: str
    contraction_sign: int
    sphere_ricci_positive: bool


# The half-angle coframe, and the contraction R_{ik} = R^l_{lik} with no
# sign flip, under which the round sphere's Ricci is positive.
_CALIBRATION = CalibrationRecord(STRUCTURE_CONSTANT, "half-angle", contraction_sign=1, sphere_ricci_positive=True)


def calibration() -> CalibrationRecord:
    """The conventions of both engines, as every report records them;
    tests/test_curvature.py derives each from its oracle."""
    return _CALIBRATION


# ---------------------------------------------------------------------------
# Scans and fits


@dataclass
class ScanSeries:
    name: str
    values: list[float]
    slope: float | None = None
    residual: float | None = None


@dataclass
class ScanResult:
    parameters: list[float]
    series: dict[str, ScanSeries] = field(default_factory=dict)

    def add(self, name: str, values: list[float], fit: bool = True) -> ScanSeries:
        s = ScanSeries(name=name, values=list(values))
        if fit:
            fitted = fit_loglog(self.parameters, values)
            if fitted is not None:
                s.slope, _, s.residual = fitted
        self.series[name] = s
        return s

    def rows(self, columns) -> list[dict]:
        """One row per parameter: the parameter as d, then each column's value."""
        return [{"d": d, **{c: self.series[c].values[i] for c in columns}}
                for i, d in enumerate(self.parameters)]


def _scaled_integers(values: list[float]) -> tuple[list[int], int]:
    """Integers X and an exponent k with values[i] = X[i] / 2^k exactly."""
    ratios = [v.as_integer_ratio() for v in values]  # (p, 2^j)
    k = max(q.bit_length() for _, q in ratios) - 1
    return [p << (k + 1 - q.bit_length()) for p, q in ratios], k


def fit_loglog(xs, ys) -> tuple[float, float, float] | None:
    """Least-squares slope, intercept and RMS residual of log y against log x.

    Returns None (the NULL marker) when the data is degenerate: fewer than
    4 points is an error, nonpositive values cannot be fitted.  Closed form
    on the math.log values, each an integer over a power of two, so every
    sum is an exact integer: with D_uv = n Σuv - Σu Σv, the slope is
    D_xy / D_xx and the residual sqrt((D_xx D_yy - D_xy²) / (n² D_xx)), each
    rounded once.  The residual can be much smaller than the logs (9e-16
    against values near 20 on the instanton's |Rm|), so float sums, even
    math.fsum's, lose most of its digits to cancellation.
    """
    if len(xs) < 4 or len(ys) != len(xs):
        raise ValueError("log-log fit needs at least 4 points")
    if any(y <= 0 for y in ys):
        return None
    (X, kx), (Y, ky) = (_scaled_integers([math.log(v) for v in vs]) for vs in (xs, ys))
    n, sx, sy = len(X), sum(X), sum(Y)
    dxx = n * sum(x * x for x in X) - sx * sx
    dxy = n * sum(x * y for x, y in zip(X, Y)) - sx * sy
    dyy = n * sum(y * y for y in Y) - sy * sy
    if not dxx:
        raise ValueError("log-log fit needs at least two distinct x values")
    slope = math.ldexp(dxy / dxx, kx - ky)  # int / int is rounded once
    intercept = math.ldexp((sy * dxx - sx * dxy) / (n * dxx), -ky)
    residual = math.ldexp(math.sqrt((dxx * dyy - dxy * dxy) / (n * n * dxx)), -ky)
    return slope, intercept, residual


def _require_geometric(values, label: str) -> None:
    if len(values) < 4:
        raise ValueError(f"{label} needs at least 4 geometrically spaced points")
    ratios = [values[i + 1] / values[i] for i in range(len(values) - 1)]
    if any(r <= 1 for r in ratios) or max(ratios) / min(ratios) > 1 + 1e-9:
        raise ValueError(f"{label} must be strictly increasing with constant ratio")


def _decay_radii(radii) -> list[float]:
    radii = [float(r) for r in radii]
    _require_geometric(radii, "decay scan radii")
    return radii


def _decay_result(radii: list[float], a, b, rm: np.ndarray) -> ScanResult:
    """decay_scan's result from a, b and |Rm| at its radii."""
    out = ScanResult(radii)
    out.add("metric_deviation", np.maximum(np.abs(a), np.abs(b)).tolist())
    out.add("rm_norm", rm.tolist())
    return out


def decay_scan(profile: RadialProfile, radii) -> ScanResult:
    """Deviation from the flat profile and |Rm| along a geometric radius grid.

    Deviation is measured in the flat-profile orthonormal coframe, where
    the metric components are (A, C/r^2, C/r^2, B/r^2) against 1: it is
    max(|a|, |b|), read off the perturbation.  Both are read off one
    kernel pass (0.09 ms on five radii, 2-core Xeon VM).  The verify stage
    takes the instanton's decay scan off its glue scan's first pass
    instead, with no pass of its own (see stage_scans).
    """
    radii = _decay_radii(radii)
    r = np.array(radii)
    coefficients, a, b = _kernel(profile, r, _work(11, r.shape))
    return _decay_result(radii, a, b, _rm(_norms(*coefficients, _work(4, r.shape))[1]))


def _norms(e0, e1, m0, p0, p1, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|Ric| and |Rm|^2 / 4 from the kernel's coefficients, in the first two
    of the four rows of work.

    The Ricci contraction is diagonal, diag(-2 E0 - E1, P1 - E0 + P0 (twice),
    P0 - E1 + P0), summed in the order of the dense contraction, so |Ric|
    equals cohomo_curvature's bit for bit; |Rm|^2 / 4 is the sum of the
    squares of the twelve coefficients (E0, E0, E1), (M0, M0, -2 M0),
    (-M0, -M0, 2 M0), (P0, P0, P1), and |Rm| = 2 sqrt of it (_rm) may differ
    from the dense sum in the last bit.  A scan's sup of |Rm| is 2 sqrt of
    the sup of this sum: sqrt and doubling are monotone and correctly
    rounded, so it equals the sup of |Rm| bit for bit.
    """
    ric, rm4, t, u = work[:4]
    # |Ric| = sqrt((ric0^2 + sq12) + (sq12 + ric3^2)), with ric12 = (P1 - E0) + P0,
    # ric3 = (P0 - E1) + P0 and ric0 = ((-E0) - E0) - E1 = -((E0 + E0) + E1) exactly
    sq12 = np.multiply(np.add(np.subtract(p1, e0, out=u), p0, out=u), u, out=u)
    np.multiply(np.add(np.add(e0, e0, out=t), e1, out=t), t, out=t)
    np.add(t, sq12, out=ric)
    np.multiply(np.add(np.subtract(p0, e1, out=t), p0, out=t), t, out=t)
    np.sqrt(np.add(ric, np.add(sq12, t, out=u), out=ric), out=ric)
    # |Rm|^2 / 4 = ((2 (E0 E0 + P0 P0) + E1 E1) + P1 P1) + 12 (M0 M0)
    np.multiply(2.0, np.add(np.multiply(e0, e0, out=rm4), np.multiply(p0, p0, out=t), out=rm4), out=rm4)
    np.add(rm4, np.multiply(e1, e1, out=t), out=rm4)
    np.add(rm4, np.multiply(p1, p1, out=t), out=rm4)
    np.add(rm4, np.multiply(12.0, np.multiply(m0, m0, out=t), out=t), out=rm4)
    return ric, rm4


def _rm(rm4: np.ndarray) -> np.ndarray:
    """|Rm| = 2 sqrt(|Rm|^2 / 4), in place."""
    return np.multiply(2.0, np.sqrt(rm4, out=rm4), out=rm4)


def frame_norms(profile: RadialProfile, radii) -> tuple[np.ndarray, np.ndarray]:
    """|Ric| and |Rm| of the profile metric at each of a 1-D sequence of
    radii, in one kernel pass, with no frame tensor."""
    r = _radii(radii)
    ric, rm4 = _norms(*_kernel(profile, r, _work(11, r.shape))[0], _work(4, r.shape))
    return ric, _rm(rm4)


# The columns of the two curvature tables, after d: the report's rows and
# the CSVs of curvature-scan read these series of the scans below.
GLUE_COLUMNS = ("r_sup", "sup_ric_annulus", "sup_rm_annulus")
MU_COLUMNS = ("rescaled_sup_ric", "diam_bound", "mu_proxy")


@lru_cache(maxsize=None)
def _annulus_step(grid_points: int) -> float:
    """2^(1/(grid_points - 1)), rounded once to a float from a 40-digit
    decimal power: decimal is pure software, so the float is the same on
    every platform."""
    ctx = decimal.Context(prec=40)
    return float(ctx.power(decimal.Decimal(2), ctx.divide(1, grid_points - 1)))


def annulus_ratios(grid_points: int) -> np.ndarray:
    """The ratios r/d of the geometric grid on an annulus [d, 2d]: q_0 = 1
    and q_{g-1} = 2 exactly, and in between q_{i+1} = q_i * rho by
    sequential IEEE multiplication, rho = _annulus_step(g).

    Every step is one correctly rounded multiply, so the grid d * q is the
    same on every CPU and numpy build; np.geomspace's log10 and power loops
    are not (numpy's AVX-512 loops round differently from its baseline).
    """
    steps = np.full(grid_points, _annulus_step(grid_points))
    steps[0] = 1.0
    q = np.multiply.accumulate(steps)
    q[-1] = 2.0
    return q


def _glue_pass(ds, ratios, cut_rows, riders):
    """One glue-scan pass over the annuli d * ratios, d in ds, with the
    riders ahead of them: (r_sup, sup|Ric|, sup|Rm|) per annulus, and
    copies of |Ric|, |Rm|, a and b at the riders.

    Every array of the pass is one of the 17 rows of one work array,
    freed on return: the grid, the perturbation (a, a', b, b', b''), and
    the kernel's five coefficients and six scratch rows.  The kernel reads
    the perturbation before it first writes its scratch rows, so the
    cutoff's p, p', p'' and the product rule's two temporaries live there
    until then, and the norms after.  A block of several rows goes through
    mmap until one is freed, which lifts glibc's mmap and trim thresholds
    above a pass's size, so a repeated pass finds its memory mapped (0
    minor page faults per 5 x 2048 scan, against 68-80 with a fresh array
    per row; getrusage).
    """
    g, head = len(ratios), len(riders)
    n = head + len(ds) * g
    work = _work(17, (n,))
    grid, perturbation, scratch = work[0], work[1:6], work[11:]
    cut = scratch[:3]
    if head:
        grid[:head] = riders
        cut[:, :head] = cutoff(riders, np.maximum(riders, 4.0))
    for lo, d in zip(range(head, n, g), ds):
        annulus = slice(lo, lo + g)
        r = np.multiply(d, ratios, out=grid[annulus])
        key = math.frexp(d)[0]
        if key not in cut_rows:
            cut_rows[key] = _cutoff_row(r / d, _work(7, (g,)))
        p, dp, d2p = cut_rows[key]
        cut[0, annulus] = p
        np.divide(dp, d, out=cut[1, annulus])
        np.divide(d2p, d * d, out=cut[2, annulus])
    profile = RadialProfile(f"glued(d={min(ds):g}..{max(ds):g})",
                            lambda r: _glued(r, *cut, [*perturbation, *scratch[3:5]]), (1.0, math.inf))
    (e0, e1, m0, p0, p1), a, b = _kernel(profile, grid, work[6:])
    ric, rm4 = _norms(e0, e1, m0, p0, p1, scratch)
    rows = []
    for lo in range(head, n, g):
        annulus = slice(lo, lo + g)
        best = lo + int(np.argmax(ric[annulus]))
        rows.append((float(grid[best]), float(ric[best]), 2.0 * math.sqrt(rm4[annulus].max())))
    return rows, (ric[:head].copy(), _rm(rm4[:head].copy()), a[:head].copy(), b[:head].copy())


def _glue_scan(d_values, grid_points: int, riders: np.ndarray):
    """glue_ricci_scan's result, and |Ric|, |Rm|, a and b of the glued
    profile at the riders, radii evaluated in the first pass ahead of its
    annuli with cutoff scale max(r, 4) and a cutoff row of their own.
    There the glued profile is the instanton's, bit for bit: r <= 4 or r
    is its own scale, so the cutoff is on its plateau at 1 with zero
    derivatives.
    """
    d_values = [float(d) for d in d_values]
    _require_geometric(d_values, "gluing scan d values")
    if any(d < 4 for d in d_values):
        raise ValueError("gluing requires d >= 4")
    per_pass = max(1, PASS_RADII // grid_points)
    ratios = annulus_ratios(grid_points)
    cut_rows = {}  # mantissa of d -> _cutoff_row of its r/d row, shared by d * 2^k
    rows = []
    for start in range(0, len(d_values), per_pass):
        annuli, ridden_here = _glue_pass(d_values[start:start + per_pass], ratios, cut_rows,
                                         riders if start == 0 else riders[:0])
        rows += annuli
        if start == 0:
            ridden = ridden_here
    out = ScanResult(d_values)
    for column, values, fit in zip(GLUE_COLUMNS, zip(*rows), (False, True, False)):
        out.add(column, values, fit=fit)
    return out, ridden


def glue_ricci_scan(d_values, grid_points: int = 512) -> ScanResult:
    """Sup of |Ric| (and |Rm|) of the glued profile over the annulus [d, 2d],
    as the GLUE_COLUMNS.

    The sup is taken on the geometric r-grid d * annulus_ratios(grid_points)
    per d; the argmax radius (the first one, on ties) is reported alongside.
    The grids of consecutive annuli are concatenated and evaluated in one
    kernel pass of max(1, PASS_RADII // grid_points) whole annuli, so a
    pass is never larger than one annulus or PASS_RADII.  The cutoff is
    evaluated once per distinct r/d row, once in all when the d values
    differ by powers of two, and divided by d and d^2 per annulus.  |Ric|
    and |Rm|^2 / 4 are read in closed form off the kernel's coefficients,
    with no dense frame tensor, and an annulus takes 2 sqrt of its largest
    |Rm|^2 / 4.  Example-a's scan (five d values, 512 radii each, one pass)
    takes 0.32-0.33 ms and five d values of 2048 radii (three passes)
    0.95 ms, against 0.41-0.44 and 1.35-1.48 ms with a temporary array per
    operation (in-process medians of 600 calls alternating with that code,
    2-core Xeon VM).
    """
    return _glue_scan(d_values, grid_points, np.zeros(0))[0]


def stage_scans(ricci_flat_radii, decay_radii, d_values, grid_points: int):
    """The curvature stage's three scans: the instanton's |Ric| at each of
    ricci_flat_radii, decay_scan(eh_profile(), decay_radii) and
    glue_ricci_scan(d_values, grid_points), each equal to its own pass bit
    for bit.  The first two ride in the glue scan's first pass, with cutoff
    scale max(r, 4) and a cutoff row of their own, where the glued profile
    is the instanton's, so the section costs the glue scan's passes only:
    0.38-0.42 ms on example-a, against 0.44-0.51 ms with a temporary array
    per operation.
    """
    decay = _decay_radii(decay_radii)
    k = len(ricci_flat_radii)
    gscan, (ric, rm, a, b) = _glue_scan(d_values, grid_points, np.array([*ricci_flat_radii, *decay], float))
    return ric[:k], _decay_result(decay, a[k:], b[k:], rm[k:]), gscan


DIAM_BOUND_FORMULA = "diam_bound(d) = 1 + 2*(2d + 2)/(20d)"


def diam_bound(d: float) -> float:
    """Conservative diameter bound after the 1/(20d) rescale.

    The flat part is normalized to diameter 1; a path additionally enters
    and leaves at most two grafted caps of radial length <= 2d + 2 before
    rescaling.
    """
    return 1.0 + 2.0 * (2.0 * d + 2.0) / (20.0 * d)


def mu_report(scan: ScanResult) -> ScanResult:
    """Rescaled curvature bound, diameter bound, and the almost-flatness
    proxy, the MU_COLUMNS, at the d values of a glue_ricci_scan result.

    Scaling a metric by c^2 = (20d)^2 multiplies the sup norm of Ricci by
    c^-2, so the rescaled sup is (20d)^2 sup|Ric|; the proxy is that times
    the squared diameter bound, expected to fall like d^-4.
    """
    d_values = scan.parameters
    sup = scan.series["sup_ric_annulus"].values
    rescaled = [(20.0 * d) ** 2 * s for d, s in zip(d_values, sup)]
    diams = [diam_bound(d) for d in d_values]
    mus = [rs * dm**2 for rs, dm in zip(rescaled, diams)]
    out = ScanResult(d_values)
    for column, values, fit in zip(MU_COLUMNS, (rescaled, diams, mus), (True, False, True)):
        out.add(column, values, fit=fit)
    return out
