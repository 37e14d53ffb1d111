"""Shared fixtures and independent oracles for the test suite.

The oracle functions here deliberately avoid the library's own solution
paths: fixed points are found by exhaustive rational-grid scanning with
union-find connectivity, Clifford products by one-transposition bubbling,
group closures by repeated multiplication until stable, group products by
`compose` over all pairs, Euler-chart Christoffel symbols from analytic
derivatives, invariant forms through the averaging projector, and
report JSON through the standard library's encoder.
"""

from __future__ import annotations

from fractions import Fraction
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from kummerlab import jets
from kummerlab.cli import bundled_examples
from kummerlab.clifford import CliffordMonomial
from kummerlab.curvature import Cutoff, RadialProfile
from kummerlab.forms import form_basis, induced_action
from kummerlab.intlinalg import smith_normal_form, unimodular_inverse
from kummerlab.jets import Jet
from kummerlab.specfile import parse_construction
from kummerlab.torus import AffineIsometry, FixedComponent, GroupTable, compose, generate_group

DATA_DIR = Path(__file__).resolve().parent / "data"


def example_spec(name: str):
    return parse_construction(bundled_examples()[name])


@pytest.fixture(scope="session")
def spec_a():
    return example_spec("example-a.spec")


@pytest.fixture(scope="session")
def spec_b():
    return example_spec("example-b.spec")


@pytest.fixture(scope="session")
def spec_b_four_chart():
    """Construction B with the four-chart atlas of tests/data."""
    return parse_construction(DATA_DIR / "example-b-four-chart.spec")


@pytest.fixture(scope="session")
def group_a(spec_a):
    return generate_group(spec_a.generators, spec_a.generator_names)


@pytest.fixture(scope="session")
def group_b(spec_b):
    return generate_group(spec_b.generators, spec_b.generator_names)


class _LibmExpNumpy:
    """numpy, except that exp runs libm's exp entry by entry and counts its calls."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x):
        self.calls += 1
        return np.array([math.exp(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


@pytest.fixture
def libm_exp(monkeypatch):
    """Jet.exp on libm's kernel instead of the one numpy's CPU dispatch picks.

    numpy's baseline float64 exp loop calls libm; its X86_V4 (AVX-512) loop
    differs from libm in the last bit on some arguments.  With this fixture
    a test sees the libm bits wherever numpy picks the X86_V4 loop.
    """
    patched = _LibmExpNumpy()
    monkeypatch.setattr(jets, "np", patched)
    return patched


# ---------------------------------------------------------------------------
# Small exact helpers the library does not need.


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_vec(a, v):
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def apply_linear(f: AffineIsometry, v) -> list[int]:
    """The linear part of f applied to an integer vector."""
    return mat_vec([list(r) for r in f.linear], list(v))


def is_identity(f: AffineIsometry) -> bool:
    n = f.dim
    return all(t == 0 for t in f.translation) and all(
        f.linear[i][j] == (i == j) for i in range(n) for j in range(n))


def scalar_one(n: int) -> CliffordMonomial:
    return CliffordMonomial(n, ())


def all_monomials(n: int):
    for k in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), k):
            yield CliffordMonomial(n, combo)


def component(basepoint, directions) -> FixedComponent:
    """The fixed component through a rational canonical basepoint: its
    integer code over the basepoint's least common denominator."""
    q = math.lcm(1, *(Fraction(x).denominator for x in basepoint))
    return FixedComponent(tuple(directions), q, tuple(int(Fraction(x) * q) for x in basepoint))


def fraction_key(comp: FixedComponent):
    """(basepoint, directions): the order in which the census lists components."""
    return comp.basepoint, comp.directions


# ---------------------------------------------------------------------------
# Brute-force fixed-locus oracle: exhaustive denominator-q scan + union-find.


def brute_force_fixed_points(f: AffineIsometry, q: int = 8) -> set:
    """Every point of the denominator-q grid fixed by f, exactly.

    Works in integer arithmetic on numerators: x = k/q is fixed iff
    L k + q t = k mod q (q t is integral whenever the grid can contain
    fixed points at all).
    """
    n = f.dim
    qt = [t * q for t in f.translation]
    if any(x.denominator != 1 for x in qt):
        # Translation denominators outside the grid: verify no grid point
        # is fixed the slow way on the offending coordinates.
        return {
            tuple(Fraction(k, q) for k in combo)
            for combo in itertools.product(range(q), repeat=n)
            if f.apply(tuple(Fraction(k, q) for k in combo))
            == tuple(Fraction(k, q) for k in combo)
        }
    qt = [int(x) for x in qt]
    rows = [list(r) for r in f.linear]
    fixed = set()
    for combo in itertools.product(range(q), repeat=n):
        ok = True
        for i in range(n):
            acc = qt[i]
            row = rows[i]
            for j in range(n):
                if row[j]:
                    acc += row[j] * combo[j]
            if (acc - combo[i]) % q:
                ok = False
                break
        if ok:
            fixed.add(tuple(Fraction(k, q) for k in combo))
    return fixed


def brute_force_components(f: AffineIsometry, q: int = 8) -> list[set]:
    """Fixed grid points grouped by connectivity.

    Two grid points are neighbors when they differ by v/q mod 1 with
    v in {-1,0,1}^n; for involution actions the true components are at
    least 2/q apart, so this grouping recovers them exactly.
    """
    points = sorted(brute_force_fixed_points(f, q))
    nums = [tuple(int(x * q) for x in p) for p in points]
    index = {p: i for i, p in enumerate(nums)}
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    n = f.dim
    steps = [s for s in itertools.product((-1, 0, 1), repeat=n) if any(s)]
    for p in nums:
        for s in steps:
            neighbor = tuple((x + k) % q for x, k in zip(p, s))
            if neighbor in index:
                union(index[p], index[neighbor])
    groups: dict[int, set] = {}
    for p, pt in zip(nums, points):
        groups.setdefault(find(index[p]), set()).add(pt)
    return list(groups.values())


def component_grid_points(comp, q: int = 8) -> set:
    """All denominator-q grid points of a computed fixed component."""
    n = len(comp.basepoint)
    out = set()
    for ks in itertools.product(range(q), repeat=comp.dimension):
        pt = tuple(
            (comp.basepoint[i] + sum(Fraction(k, q) * d[i] for k, d in zip(ks, comp.directions))) % 1
            for i in range(n)
        )
        if all(x.denominator <= q and q % x.denominator == 0 for x in pt):
            out.add(pt)
    return out


# ---------------------------------------------------------------------------
# Lattice-adapted basis, used by the enumerating basepoint oracle.


def lattice_adapted_basis(rows: list[list[int]]) -> list[list[int]]:
    """Unimodular matrix whose first columns span the given saturated lattice.

    rows must be a basis of a saturated (primitive) sublattice of Z^n; the
    returned n x n matrix v has its first len(rows) columns spanning that
    lattice and determinant ±1.
    """
    n = len(rows[0])
    cols = [[rows[j][i] for j in range(len(rows))] for i in range(n)]
    d, u, _v = smith_normal_form(cols)
    for k in range(len(rows)):
        if d[k][k] != 1:
            raise ValueError("direction lattice is not saturated")
    return unimodular_inverse(u)


# ---------------------------------------------------------------------------
# Brute-force group closure oracle.


def brute_force_closure(generators) -> set:
    """Closure by repeated pairwise multiplication until stable."""
    elems = {AffineIsometry.identity(generators[0].dim), *generators}
    while True:
        new = set()
        for a in elems:
            for b in elems:
                p = compose(a, b)
                if p not in elems:
                    new.add(p)
        if not new:
            return elems
        elems |= new


def compose_products(elements) -> list[list[int]]:
    """products[i][j]: the index of compose(elements[i], elements[j]), over all pairs.

    Raises KeyError when a product falls outside the list, which therefore
    also checks closure."""
    index = {el: k for k, el in enumerate(elements)}
    return [[index[compose(a, b)] for b in elements] for a in elements]


# ---------------------------------------------------------------------------
# Naive Clifford product oracle: bubble one transposition at a time.


def naive_clifford_product(indices_a, indices_b, sign_a=1, sign_b=1, square_sign=-1):
    """Normal form of the concatenated word by adjacent transpositions."""
    word = list(indices_a) + list(indices_b)
    sign = sign_a * sign_b
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(word):
            if word[i] == word[i + 1]:
                sign *= square_sign
                del word[i : i + 2]
                changed = True
            elif word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign *= -1
                changed = True
            else:
                i += 1
    return tuple(word), sign


# ---------------------------------------------------------------------------
# Random signed-permutation involution generator (seeded by the caller).


def random_involution(rng, n: int, denominators=(2, 4)) -> AffineIsometry:
    """Random signed-permutation involution of the n-torus.

    The permutation part is a random involution (cycles of length <= 2);
    2-cycles carry matched signs so the square of the linear part is the
    identity; the translation is rejected until the map squares to the
    identity on the torus.
    """
    while True:
        perm = list(range(n))
        indices = list(range(n))
        rng.shuffle(indices)
        i = 0
        while i + 1 < len(indices):
            if rng.random() < 0.4:
                a, b = indices[i], indices[i + 1]
                perm[a], perm[b] = b, a
                i += 2
            else:
                i += 1
        linear = [[0] * n for _ in range(n)]
        for i in range(n):
            if perm[i] == i:
                linear[i][i] = rng.choice((1, -1))
            elif perm[i] > i:
                s = rng.choice((1, -1))
                linear[i][perm[i]] = s
                linear[perm[i]][i] = s
        trans = tuple(Fraction(rng.randrange(q), q) for q in (rng.choice(denominators) for _ in range(n)))
        f = AffineIsometry(tuple(tuple(r) for r in linear), trans)
        if is_identity(compose(f, f)) and not is_identity(f):
            return f


# ---------------------------------------------------------------------------
# Curvature oracles: analytic Euler-chart Christoffel symbols, constant
# rescaling of a profile, and the measured cutoff derivative constants.


def euler_chart_christoffel_exact(profile: RadialProfile, x) -> np.ndarray:
    """Christoffel symbols of the Euler chart from analytic derivatives.

    Radial derivatives come from profile jets and angular derivatives from
    the explicit trigonometric dependence; no finite differencing, so this
    is an independent oracle for the chart engine.
    """
    r_, th = float(x[0]), float(x[1])
    Aj, Bj, Cj = profile.at(r_)
    a, b, c = Aj.value, Bj.value, Cj.value
    da, db, dc = Aj.derivative(1), Bj.derivative(1), Cj.derivative(1)
    st, ct = math.sin(th), math.cos(th)

    g = np.zeros((4, 4))
    g[0, 0] = a
    g[1, 1] = c / 4.0
    g[2, 2] = (c * st * st + b * ct * ct) / 4.0
    g[2, 3] = g[3, 2] = b * ct / 4.0
    g[3, 3] = b / 4.0

    dg = np.zeros((4, 4, 4))  # dg[l, i, j] = d_l g_ij
    dg[0, 0, 0] = da
    dg[0, 1, 1] = dc / 4.0
    dg[0, 2, 2] = (dc * st * st + db * ct * ct) / 4.0
    dg[0, 2, 3] = dg[0, 3, 2] = db * ct / 4.0
    dg[0, 3, 3] = db / 4.0
    dg[1, 2, 2] = (c - b) * 2.0 * st * ct / 4.0
    dg[1, 2, 3] = dg[1, 3, 2] = -b * st / 4.0

    sym = dg + np.einsum("jil->ijl", dg) - np.einsum("lij->ijl", dg)
    ginv = np.linalg.inv(g)
    return 0.5 * np.einsum("kl,ijl->kij", ginv, sym)


def scale_profile(profile: RadialProfile, c2: float, name: str | None = None) -> RadialProfile:
    """Profile of the metric multiplied by the constant factor c2."""
    return RadialProfile(
        name=name or f"{profile.name}*{c2}",
        jets=lambda r: tuple(q * c2 for q in profile.jets(r)),
        domain=profile.domain,
    )


def cutoff_derivative_bounds(cut: Cutoff, samples: int = 2048) -> dict[int, float]:
    """Measured constants c_m = sup |D^m rho_d| * d^m over the ramp, m = 1..4."""
    jet = cut.jet(Jet((np.linspace(cut.d, 2.0 * cut.d, samples), 1.0, 0.0, 0.0, 0.0)))
    return {m: float(np.max(np.abs(jet.derivative(m)))) * cut.d**m for m in range(1, 5)}


# ---------------------------------------------------------------------------
# Full-order reference for the curvature pass: every jet carried to order 2,
# the bump masking every coefficient, and each profile written as a single
# expression, as the pass computed them before it truncated each jet to the
# order its consumer reads.


def reference_bump(s: Jet) -> Jet:
    plateau = s.value <= 1e-6
    if np.all(plateau):
        return Jet.const(0.0)
    if not np.any(plateau):
        return (-1.0 / s).exp()
    safe = Jet(tuple(np.where(plateau, 1.0, c) for c in s.coeffs))
    return Jet(tuple(np.where(plateau, 0.0, c) for c in (-1.0 / safe).exp().coeffs))


def reference_eh_jets(r: Jet):
    drop, r2 = 1.0 - r ** (-4), r**2
    return 1.0 / drop, r2 * drop, r2


def reference_glued_jets(d):
    """The glued profile's jets at one scale, or at one scale per radius."""

    def jets(r: Jet):
        scaled = r * Jet((1.0 / d,))
        num = reference_bump(2.0 - scaled)
        p = num / (num + reference_bump(scaled - 1.0))
        drop, r2 = 1.0 - r ** (-4), r**2
        return p / drop + (1.0 - p), r2 * (p * drop + (1.0 - p)), r2

    return jets


def reference_euclidean_jets(r: Jet):
    return Jet.const(1.0), r**2, r**2


def reference_cartan_coefficients(jets, r, n: float):
    """(E, M, N, P) of the profile with the given jets, all at order 2."""
    Aj, Bj, Cj = jets(Jet.seed(r))
    f0 = Aj.sqrt()
    sc = Cj.sqrt()
    a = [sc, sc, Bj.sqrt()]
    Ai = [ai.deriv_jet() / (f0 * ai) for ai in a]
    f0v = f0.value
    Av = [q.value for q in Ai]
    dA = [q.derivative(1) for q in Ai]
    K = [n * a[0] / (a[1] * a[2]), n * a[1] / (a[2] * a[0]), n * a[2] / (a[0] * a[1])]
    c = [(K[1] + K[2] - K[0]) * 0.5, (K[2] + K[0] - K[1]) * 0.5, (K[0] + K[1] - K[2]) * 0.5]
    Kv = [q.value for q in K]
    cv = [q.value for q in c]
    dc = [q.derivative(1) for q in c]
    E = [dA[i] / f0v + Av[i] ** 2 for i in range(3)]
    M = [
        Av[0] * Kv[0] - cv[2] * Av[1] - cv[1] * Av[2],
        Av[1] * Kv[1] - cv[2] * Av[0] - cv[0] * Av[2],
        Av[2] * Kv[2] - cv[1] * Av[0] - cv[0] * Av[1],
    ]
    N = [dc[i] / f0v + cv[i] * Av[i] for i in range(3)]
    P = [
        cv[0] * Kv[0] - Av[1] * Av[2] - cv[1] * cv[2],
        cv[1] * Kv[1] - Av[2] * Av[0] - cv[0] * cv[2],
        cv[2] * Kv[2] - Av[0] * Av[1] - cv[0] * cv[1],
    ]
    return E, M, N, P


# ---------------------------------------------------------------------------
# Averaging projector on constant k-forms.


def averaging_projector(group: GroupTable, k: int) -> list[list[Fraction]]:
    """P = (1/|G|) sum of induced actions; exact rational entries."""
    n = group.dim
    size = len(form_basis(n, k))
    total = [[0] * size for _ in range(size)]
    for el in group.elements:
        rho = induced_action(el.linear, k)
        for r in range(size):
            for c in range(size):
                total[r][c] += rho[r][c]
    order = group.order
    return [[Fraction(total[r][c], order) for c in range(size)] for r in range(size)]


# ---------------------------------------------------------------------------
# The report encoder the one-pass writer replaced: a normalized copy of the
# report, then json.dumps with sorted keys and a two-space indent.


def reference_normalize(obj):
    """Deterministic JSON-able copy: floats rounded, exact types stringified."""
    if isinstance(obj, dict):
        return {str(k): reference_normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_normalize(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj if obj == 0 or not math.isfinite(obj) else float(f"{obj:.12g}")
    return str(obj)


def reference_report_json(report) -> str:
    out = dict(report.sections)
    out["claims"] = [c.to_dict() for c in report.claims]
    out["overall"] = report.overall
    return json.dumps(reference_normalize(out), sort_keys=True, indent=2) + "\n"
