"""Shared fixtures and independent oracles for the test suite.

The oracle functions here deliberately avoid the library's own solution
paths: fixed points are found by exhaustive rational-grid scanning with
union-find connectivity, Clifford products by one-transposition bubbling,
group closures by repeated multiplication until stable, group products by
`compose` over all pairs, determinants by Bareiss elimination, Euler-chart
Christoffel symbols from analytic derivatives, invariant forms through the
averaging projector, and report JSON through the standard library's encoder.
"""

from __future__ import annotations

from fractions import Fraction
import decimal
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from jets import Jet
from kummerlab import curvature
from kummerlab.cli import bundled_examples
from kummerlab.clifford import CliffordMonomial
from kummerlab.curvature import RadialProfile
from kummerlab.forms import form_basis, induced_action
from kummerlab.intlinalg import smith_normal_form, unimodular_inverse
from kummerlab.specfile import parse_construction
from kummerlab.torus import AffineIsometry, FixedComponent, GroupTable, generate_group

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

    def exp(self, x, out=None):
        self.calls += 1
        values = np.array([math.exp(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))
        if out is None:
            return values
        out[...] = values
        return out


@pytest.fixture
def libm_exp(monkeypatch):
    """The curvature kernel's exp on libm's kernel instead of the one
    numpy's CPU dispatch picks.

    numpy's baseline float64 exp loop calls libm; its X86_V4 (AVX-512) loop
    differs from libm in the last bit on some arguments.  With this fixture
    a test sees the libm bits wherever numpy picks the X86_V4 loop.
    """
    patched = _LibmExpNumpy()
    monkeypatch.setattr(curvature, "np", patched)
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
            if apply(f, tuple(Fraction(k, q) for k in combo))
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
# Composition and brute-force group closure oracles.


def compose(f: AffineIsometry, g: AffineIsometry) -> AffineIsometry:
    """The isometry x -> f(g(x)), from the matrix product and the Fraction
    translations of the two views."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    n = f.dim
    lin = tuple(
        tuple(sum(f.linear[i][k] * g.linear[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    trans = tuple(
        sum(Fraction(f.linear[i][k]) * g.translation[k] for k in range(n)) + f.translation[i]
        for i in range(n)
    )
    return AffineIsometry(lin, trans)


def identity(n: int) -> AffineIsometry:
    return diagonal((1,) * n, (0,) * n)


def diagonal(signs, translation) -> AffineIsometry:
    """The isometry x -> diag(signs) x + translation."""
    n = len(signs)
    lin = tuple(tuple(signs[i] if i == j else 0 for j in range(n)) for i in range(n))
    return AffineIsometry(lin, tuple(Fraction(t) for t in translation))


def apply(f: AffineIsometry, point) -> tuple[Fraction, ...]:
    """f at a rational point, reduced into [0,1)^n, from its code."""
    pt = [Fraction(x) for x in point]
    return tuple((s * pt[p] + Fraction(t, f.denom)) % 1 for p, s, t in zip(f.perm, f.signs, f.nums))


def int_det(a) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def brute_force_closure(generators) -> set:
    """Closure by repeated pairwise multiplication until stable."""
    elems = {identity(generators[0].dim), *generators}
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

    Radial derivatives come from the profile's perturbation (A = 1 + a,
    B = r^2 (1 + b), C = r^2) and angular derivatives from the explicit
    trigonometric dependence; no finite differencing, so this is an
    independent oracle for the chart engine.
    """
    r_, th = float(x[0]), float(x[1])
    pa, pda, pb, pdb, _ = (float(q[0]) for q in profile.at(np.array([r_])))
    a, b, c = 1.0 + pa, r_ * r_ * (1.0 + pb), r_ * r_
    da, db, dc = pda, 2.0 * r_ * (1.0 + pb) + r_ * r_ * pdb, 2.0 * r_
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


def scale_profile(profile: RadialProfile, c: float, name: str | None = None) -> RadialProfile:
    """The metric multiplied by c^2, in the radius rho = c r: A stays,
    c^2 B(r) = rho^2 (1 + b) and c^2 C(r) = rho^2, so the perturbation is
    a(rho / c), b(rho / c) with its derivatives divided by c and c^2."""

    def perturbation(rho):
        a, da, b, db, d2b = profile.perturbation(rho / c)
        return a, da / c, b, db / c, d2b / (c * c)

    lo, hi = profile.domain
    return RadialProfile(name or f"{profile.name}*{c}", perturbation, (lo * c, hi * c))


def cutoff_derivative_bounds(d: float, samples: int = 2048) -> dict[int, float]:
    """Measured constants c_m = sup |D^m rho_d| * d^m over the ramp, m = 1..4,
    from the reference cutoff's order-4 jet."""
    jet = reference_cutoff(Jet((np.linspace(d, 2.0 * d, samples), 1.0, 0.0, 0.0, 0.0)), d)
    return {m: float(np.max(np.abs(jet.derivative(m)))) * d**m for m in range(1, 5)}


# ---------------------------------------------------------------------------
# The reference engine for the curvature kernel: every profile written as
# jets of A, B and C, carried to order 2 through the Cartan structure
# equations of the general diagonal ansatz, in float (Jet) or at
# DECIMAL_DIGITS digits (DecimalJet, the oracle).  It is how the library
# computed curvature before its closed-form kernel.


def reference_bump(s):
    plateau = s.value <= 1e-6
    if np.all(plateau):
        return type(s)((0.0,))
    if not np.any(plateau):
        return (-1.0 / s).exp()
    safe = Jet(tuple(np.where(plateau, 1.0, c) for c in s.coeffs))
    return Jet(tuple(np.where(plateau, 0.0, c) for c in (-1.0 / safe).exp().coeffs))


def reference_cutoff(r, d):
    """The cutoff as a jet: exp(-1/(2 - x)) / (exp(-1/(2 - x)) + exp(-1/(x - 1))), x = r/d."""
    scaled = r / type(r)((d,))
    num = reference_bump(2.0 - scaled)
    return num / (num + reference_bump(scaled - 1.0))


def reference_eh_jets(r):
    drop, r2 = 1.0 - r ** (-4), r * r
    return 1.0 / drop, r2 * drop, r2


def reference_glued_jets(d):
    """The glued profile's jets at one scale, or at one scale per radius."""

    def jets(r):
        p = reference_cutoff(r, d)
        drop, r2 = 1.0 - r ** (-4), r * r
        return p / drop + (1.0 - p), r2 * (p * drop + (1.0 - p)), r2

    return jets


def reference_euclidean_jets(r):
    return type(r)((1.0,)), r * r, r * r


def reference_cartan_coefficients(jets, r, n: float, seed=Jet.seed):
    """(E, M, N, P) of the profile with the given jets, all at order 2."""
    Aj, Bj, Cj = jets(seed(r))
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
    E = [dA[i] / f0v + Av[i] * Av[i] for i in range(3)]
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


def reference_squared_norms(E, M, N, P):
    """|Ric|^2 and |Rm|^2 from the coefficient triples, whatever their number type."""
    ric = [-E[0] - E[1] - E[2], -E[0] + P[1] + P[2], -E[1] + P[0] + P[2], -E[2] + P[0] + P[1]]
    return sum(q * q for q in ric), 4 * sum(q * q for coefficients in (E, M, N, P) for q in coefficients)


DECIMAL_DIGITS = 60


def _dec(x) -> decimal.Decimal:
    return x if isinstance(x, decimal.Decimal) else decimal.Decimal(x)  # exact for floats


class DecimalJet:
    """Jet's truncated Taylor arithmetic on Decimal coefficients, one point
    at a time: floats enter exactly, and every operation rounds to the
    current decimal context (DECIMAL_DIGITS digits in oracle_frame_norms)."""

    def __init__(self, coeffs):
        self.coeffs = tuple(map(_dec, coeffs))

    @staticmethod
    def seed(x) -> "DecimalJet":
        return DecimalJet((x, 1, 0))

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, m: int):
        if m and len(self.coeffs) == 1:
            return decimal.Decimal(0)
        return self.coeffs[m] * math.factorial(m)

    def deriv_jet(self) -> "DecimalJet":
        c = self.coeffs
        return DecimalJet([k * c[k] for k in range(1, len(c))] or [0])

    def _pair(self, other):
        y = other.coeffs if isinstance(other, DecimalJet) else (_dec(other),)
        x = self.coeffs
        n = max(len(x), len(y)) if 1 in (len(x), len(y)) else min(len(x), len(y))
        pad = lambda c: (c + (decimal.Decimal(0),) * n)[:n]  # noqa: E731
        return pad(x), pad(y)

    def __add__(self, other):
        return DecimalJet(a + b for a, b in zip(*self._pair(other)))

    __radd__ = __add__

    def __neg__(self):
        return DecimalJet(-a for a in self.coeffs)

    def __sub__(self, other):
        return DecimalJet(a - b for a, b in zip(*self._pair(other)))

    def __rsub__(self, other):
        return DecimalJet(b - a for a, b in zip(*self._pair(other)))

    def __mul__(self, other):
        a, b = self._pair(other)
        return DecimalJet(sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._pair(other)
        q = []
        for k in range(len(a)):
            q.append((a[k] - sum(b[j] * q[k - j] for j in range(1, k + 1))) / b[0])
        return DecimalJet(q)

    def __rtruediv__(self, other):
        return DecimalJet((other,)) / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return 1 / self ** (-exponent)
        out = DecimalJet((1,))
        for _ in range(exponent):
            out = out * self
        return out

    def sqrt(self) -> "DecimalJet":
        a = self.coeffs
        s = [a[0].sqrt()]
        for k in range(1, len(a)):
            s.append((a[k] - sum(s[j] * s[k - j] for j in range(1, k))) / (2 * s[0]))
        return DecimalJet(s)

    def exp(self) -> "DecimalJet":
        a = self.coeffs
        e = [a[0].exp()]
        for k in range(1, len(a)):
            e.append(sum(j * a[j] * e[k - j] for j in range(1, k + 1)) / k)
        return DecimalJet(e)


def oracle_coefficients(jets, r: float) -> list[float]:
    """The twelve coefficients (E, M, N, P) of the profile with the given
    reference jets at the float radius r, at DECIMAL_DIGITS digits, each
    rounded once to a float."""
    with decimal.localcontext(decimal.Context(prec=DECIMAL_DIGITS)):
        triples = reference_cartan_coefficients(jets, r, -2, seed=DecimalJet.seed)
        return [float(q) for triple in triples for q in triple]


def oracle_frame_norms(jets, r: float) -> tuple[float, float]:
    """|Ric| and |Rm| of the profile with the given reference jets at the
    float radius r, through the reference engine at DECIMAL_DIGITS digits,
    rounded once to floats."""
    with decimal.localcontext(decimal.Context(prec=DECIMAL_DIGITS)):
        ric2, rm2 = reference_squared_norms(*reference_cartan_coefficients(jets, r, -2, seed=DecimalJet.seed))
        return float(ric2.sqrt()), float(rm2.sqrt())


@dataclass
class JetProfile:
    """A profile given by jets of A, B and C, outside the C = r^2 family
    the library's profiles belong to: enough of RadialProfile for the
    Euler chart and coframe."""

    name: str
    jets: object
    domain: tuple = (0.0, math.inf)

    def values(self, r: float):
        return tuple(float(q.value) for q in self.jets(Jet.seed(r)))


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
