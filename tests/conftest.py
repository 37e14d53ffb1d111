"""Shared fixtures and independent oracles for the test suite.

The oracle functions here deliberately avoid the library's own solution
paths: fixed points are found by exhaustive rational-grid scanning with
union-find connectivity, Clifford products by one-transposition bubbling,
and group closures by repeated multiplication until stable.
"""

from __future__ import annotations

from fractions import Fraction
import itertools
from pathlib import Path

import pytest

from kummerlab.cli import bundled_examples
from kummerlab.intlinalg import smith_normal_form, unimodular_inverse
from kummerlab.specfile import parse_construction
from kummerlab.torus import AffineIsometry, compose, generate_group

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
        if compose(f, f).is_identity() and not f.is_identity():
            return f
