"""The integer group core against the direct algorithms it replaced.

The references are kept here verbatim in spirit: the BFS closure with a
product table built by `compose`, the fixed locus solved through the
integer Smith normal form and canonicalized against any saturated
lattice, the canonical basepoint by enumerating all q^dim candidates,
the image of a component computed in `Fraction`s, the generators'
component permutations from that image, the census orbit search that
applies every group element to every component with per-element
stabilizer tests, and the invariant forms as the kernel of the induced
actions of every element.  The fast paths must reproduce them exactly on
seeded random groups whose linear parts are non-diagonal signed
permutations.  Call counts taken through the module bindings guard the
work the fast paths save.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from conftest import lattice_adapted_basis
from kummerlab import forms, fstructure, pipeline, torus
from kummerlab.forms import form_basis, induced_action, invariant_forms
from kummerlab.intlinalg import (
    hermite_row_basis,
    int_det,
    kernel_basis,
    smith_normal_form,
    unimodular_inverse,
)
from kummerlab.torus import (
    AffineIsometry,
    CensusOrbit,
    FixedComponent,
    GroupClosureError,
    SingularCensus,
    compose,
    fixed_locus,
    generate_group,
    singular_census,
    transform_component,
)

# ---------------------------------------------------------------------------
# Reference algorithms.


def reference_group(generators, names, max_order=16):
    """Closure by `compose`, product table by `compose` over all pairs."""
    n = generators[0].dim
    ident = AffineIsometry.identity(n)
    elements, elt_names, index = [ident], ["e"], {ident: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for g, gname in zip(generators, names):
                p = compose(elements[i], g)
                if p not in index:
                    if len(elements) >= max_order:
                        raise GroupClosureError("cap")
                    index[p] = len(elements)
                    elements.append(p)
                    elt_names.append(gname if i == 0 else elt_names[i] + "*" + gname)
                    nxt.append(index[p])
        frontier = nxt
    order = len(elements)
    product = [[index[compose(a, b)] for b in elements] for a in elements]
    abelian = all(product[i][j] == product[j][i] for i in range(order) for j in range(order))
    exponent = 1
    for i in range(order):
        k, j = 1, i
        while j != 0:
            j = product[j][i]
            k += 1
        exponent = lcm(exponent, k)
    return elements, elt_names, product, abelian, exponent


class ReferenceLatticeFrame:
    """Integer data of one saturated direction lattice D in Z^n.

    The rows of annihilator are a basis of the integer functionals that
    vanish on D; the columns of complement extend a basis of D to a basis
    of Z^n, dual to those rows.  hermite_basis(q) is the Hermite basis of
    D + qZ^n.
    """

    def __init__(self, directions):
        n, dim = len(directions[0]), len(directions)
        cols = [[d[i] for d in directions] for i in range(n)]
        d, u, _v = smith_normal_form(cols)
        if any(d[k][k] != 1 for k in range(dim)):
            raise ValueError("direction lattice is not saturated")
        self.directions = directions
        self.annihilator = np.array(u[dim:], dtype=object).reshape(n - dim, n)
        self.complement = np.array(
            [row[dim:] for row in unimodular_inverse(u)], dtype=object
        ).reshape(n, n - dim)

    def hermite_basis(self, q):
        n = len(self.complement)
        scaled = [[q if i == j else 0 for j in range(n)] for i in range(n)]
        return np.array(hermite_row_basis([list(d) for d in self.directions] + scaled), dtype=object)


def reference_canonical_codes(nums, m, directions):
    """(q, w) per row for any saturated lattice: the annihilating functionals
    fix the intrinsic denominator q, and w is reduced column by column
    against the Hermite basis of D + qZ^n to the lexicographic minimum."""
    m = np.array(m, dtype=object)
    nums = np.array(nums, dtype=object).reshape(len(m), -1)
    if not directions:
        q = m // np.gcd(m, np.gcd.reduce(nums, axis=1))
        w = nums // (m // q)[:, None] % q[:, None]
        return q.tolist(), [tuple(row) for row in w.tolist()]
    frame = ReferenceLatticeFrame(directions)
    tail = nums.dot(frame.annihilator.T)
    q = m // np.gcd(m, np.gcd.reduce(tail, axis=1))
    w = (tail // (m // q)[:, None]).dot(frame.complement.T)
    q = q.tolist()
    for qv in set(q):
        rows = [r for r, x in enumerate(q) if x == qv]
        block = w[rows]
        for j, row in enumerate(frame.hermite_basis(qv)):
            block -= (block[:, j] // row[j])[:, None] * row
        w[rows] = block
    return q, [tuple(row) for row in w.tolist()]


def reference_fixed_locus(f):
    """Solves (L - I) x = -t mod Z^n by Smith decomposition U (L-I) V = D.

    In y = V^{-1} x coordinates each constrained row gives finitely many
    rational values, and each zero row either obstructs or frees a
    direction; solutions are numerators over N·d_last.
    """
    n = f.dim
    denom = lcm(1, *(t.denominator for t in f.translation))
    t_nums = [int(t * denom) for t in f.translation]
    m = [[f.linear[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    d, u, v = smith_normal_form(m)
    c = [-sum(a * t for a, t in zip(row, t_nums) if a) for row in u]
    scale = max(d[i][i] for i in range(n)) or 1
    choices, free_idx = [], []
    for i in range(n):
        di = d[i][i]
        if di == 0:
            if c[i] % denom:
                return []
            free_idx.append(i)
            choices.append([0])
        else:
            choices.append([(c[i] + k * denom) * (scale // di) for k in range(di)])
    directions = tuple(
        tuple(r) for r in hermite_row_basis([[v[r][i] for r in range(n)] for i in free_idx])
    )
    combos = np.array(list(itertools.product(*choices)), dtype=object)
    points = combos.dot(np.array(v, dtype=object).T)
    q, w = reference_canonical_codes(points, [denom * scale] * len(points), directions)
    common = lcm(*q)
    order = sorted(range(len(q)), key=lambda r: torus._lex_key(q[r], w[r], common))
    return [FixedComponent(tuple(Fraction(k, q[r]) for k in w[r]), directions) for r in order]


def reference_basepoint(point, directions, cap=1024):
    """Lexicographic minimum over all q^dim candidates of the component.

    Returns None instead when there are more than `cap` candidates.
    """
    point = tuple(x % 1 for x in point)
    if not directions:
        return point
    n, dim = len(point), len(directions)
    v0 = lattice_adapted_basis([list(d) for d in directions])
    v0_inv = unimodular_inverse(v0)
    y = [sum(Fraction(v0_inv[i][j]) * point[j] for j in range(n)) for i in range(n)]
    tail = y[dim:]
    q = lcm(1, *(t.denominator for t in tail))
    if q**dim > cap:
        return None
    best = None
    for ks in itertools.product(range(q), repeat=dim):
        yc = [Fraction(k, q) for k in ks] + tail
        cand = tuple(sum(Fraction(v0[i][j]) * yc[j] for j in range(n)) % 1 for i in range(n))
        if best is None or cand < best:
            best = cand
    return best


def reference_transform(el, comp):
    """g(comp) in Fractions: the image point and directions, canonicalized by enumeration."""
    dirs = tuple(
        tuple(r) for r in hermite_row_basis([el.apply_linear(list(dv)) for dv in comp.directions])
    )
    base = reference_basepoint(el.apply(comp.basepoint), dirs)
    assert base is not None, "too many candidates for the enumeration"
    return FixedComponent(base, dirs)


def reference_permutations(group, components):
    """Each generator's image of each component, composed along the spanning tree as lists."""
    position = {comp.key: k for k, comp in enumerate(components)}
    by_generator = {
        g: [position[reference_transform(group.elements[g], comp).key] for comp in components]
        for g in sorted({g for _i, g in group.factors[1:]})
    }
    perms = [list(range(len(components)))]
    for i, g in group.factors[1:]:
        perms.append([perms[i][c] for c in by_generator[g]])
    return perms


def reference_invariant_basis(group, k):
    """Hermite basis of the kernel of rho(g) - I stacked over every non-identity element."""
    size = len(form_basis(group.dim, k))
    stacked = []
    for el in group.elements[1:]:
        rho = induced_action(el.linear, k)
        stacked += [[rho[r][c] - (r == c) for c in range(size)] for r in range(size)]
    stacked = [row for row in stacked if any(row)]
    if not stacked:
        return [[int(i == j) for j in range(size)] for i in range(size)]
    return hermite_row_basis(kernel_basis(stacked))


def reference_census(group):
    """Orbits by applying every element; stabilizers tested element by element."""
    seen = {}
    for el in group.elements[1:]:
        for comp in fixed_locus(el):
            seen.setdefault(comp.key, comp)
    components = sorted(seen.values(), key=lambda c: c.key)
    unassigned = {c.key: c for c in components}
    orbits = []
    while unassigned:
        start = min(unassigned)
        orbit = {start: unassigned[start]}
        frontier = [unassigned[start]]
        while frontier:
            nxt = []
            for comp in frontier:
                for el in group.elements:
                    image = reference_transform(el, comp)
                    if image.key not in orbit:
                        orbit[image.key] = image
                        nxt.append(image)
            frontier = nxt
        for key in orbit:
            del unassigned[key]
        rep = orbit[min(orbit)]

        def keeps_directions(el):
            return all(el.apply_linear(list(dv)) == list(dv) for dv in rep.directions)

        setwise = [i for i, el in enumerate(group.elements) if reference_transform(el, rep) == rep]
        pointwise = [
            i for i in setwise
            if keeps_directions(group.elements[i])
            and group.elements[i].apply(rep.basepoint) == rep.basepoint
        ]
        translations = [
            i for i in setwise
            if i not in pointwise
            and keeps_directions(group.elements[i])
            and group.elements[i].apply(rep.basepoint) != rep.basepoint
        ]
        model = None
        if rep.dimension == 1:
            model = torus.LOCAL_MODEL_HALF_TURN if translations else torus.LOCAL_MODEL_PRODUCT
        orbits.append(CensusOrbit(
            representative=rep,
            components=sorted(orbit.values(), key=lambda c: c.key),
            setwise_stabilizer=setwise,
            pointwise_stabilizer=pointwise,
            translation_elements=translations,
            quotient_length_factor=Fraction(len(pointwise), len(setwise)),
            local_model=model,
        ))
    orbits.sort(key=lambda o: o.representative.key)
    return SingularCensus(components, orbits)


# ---------------------------------------------------------------------------
# Seeded random inputs.


def random_signed_permutation(rng, n, denominators, non_diagonal=True):
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        if not non_diagonal or perm != list(range(n)):
            break
    linear = tuple(
        tuple(rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)) for i in range(n)
    )
    trans = tuple(Fraction(rng.randrange(q), q) for q in (rng.choice(denominators) for _ in range(n)))
    return AffineIsometry(linear, trans)


def random_groups(seed, count, non_abelian, max_order=16):
    """(generators, names) of `count` groups of order <= max_order, dimensions 3-5.

    With non_abelian set, each group has two non-commuting generators, so
    that the order of composition along the closure's spanning tree shows.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 5)
        gens = [random_signed_permutation(rng, n, (1, 2, 4), non_diagonal=(k == 0))
                for k in range(2 if non_abelian else rng.randint(1, 3))]
        names = [f"s{k}" for k in range(len(gens))]
        try:
            abelian = reference_group(gens, names, max_order=max_order)[3]
        except GroupClosureError:
            continue
        if not (non_abelian and abelian):
            out.append((gens, names))
    return out


RANDOM_GROUPS = random_groups(2024, 15, non_abelian=False) + random_groups(2025, 15, non_abelian=True)


# ---------------------------------------------------------------------------
# Exact equality with the references.


@pytest.mark.parametrize("case", range(len(RANDOM_GROUPS)))
def test_integer_closure_matches_compose_closure(case):
    gens, names = RANDOM_GROUPS[case]
    table = generate_group(gens, names, max_order=16)
    elements, elt_names, product, abelian, exponent = reference_group(gens, names)
    assert table.elements == elements
    assert table.names == elt_names
    assert table.product == product
    assert (table.abelian, table.exponent) == (abelian, exponent)
    for p, (i, g) in enumerate(table.factors):
        assert compose(table.elements[i], table.elements[g]) == table.elements[p]


def reference_orientable(group):
    return all(int_det([list(r) for r in el.linear]) == 1 for el in group.elements)


def reference_witnesses(group, fixed_elements):
    """Per axis j, the first fixed-point element whose linear part sends e_j to -e_j."""
    n = group.dim
    unit = [[int(k == j) for k in range(n)] for j in range(n)]
    return {
        j: next((i for i in fixed_elements
                 if group.elements[i].apply_linear(unit[j]) == [-x for x in unit[j]]), None)
        for j in range(n)
    }


@pytest.mark.parametrize("case", range(len(RANDOM_GROUPS)))
def test_generators_decide_abelian_orientation_and_witnesses(case):
    gens, names = RANDOM_GROUPS[case]
    group = generate_group(gens, names, max_order=16)
    everything = range(group.order)
    assert group.abelian == all(group.product[i][j] == group.product[j][i]
                                for i in everything for j in everything)
    report = pipeline.Report()
    census = pipeline.run_census_stage(group, report)
    cert = pipeline.run_pi1_stage(group, report)
    pipeline.run_betti_stage(group, census, cert, report)
    assert report.sections["betti"]["orientation_preserving"] == reference_orientable(group)
    assert cert.direction_witnesses == reference_witnesses(group, cert.fixed_point_elements)


def test_random_groups_cover_abelian_orientation_and_witness_outcomes():
    groups = [generate_group(g, n, max_order=16) for g, n in RANDOM_GROUPS]
    assert {(t.abelian, reference_orientable(t)) for t in groups} == {
        (a, o) for a in (True, False) for o in (True, False)
    }
    witnessed = [w is not None for t in groups
                 for w in torus.pi1_certificate(t).direction_witnesses.values()]
    assert any(witnessed) and not all(witnessed)


def test_random_groups_cover_non_abelian_and_larger_orders():
    tables = [generate_group(g, n, max_order=16) for g, n in RANDOM_GROUPS]
    assert any(not t.abelian for t in tables)
    assert max(t.order for t in tables) >= 8
    assert all(2 <= t.order <= 16 for t in tables)


def test_integer_closure_cap_matches_reference():
    rng = random.Random(5)
    checked = 0
    while checked < 10:
        gens = [random_signed_permutation(rng, 4, (2, 3, 4, 8)) for _ in range(2)]
        names = ["a", "b"]
        try:
            expected = reference_group(gens, names, max_order=12)
        except GroupClosureError:
            with pytest.raises(GroupClosureError):
                generate_group(gens, names, max_order=12)
            checked += 1
            continue
        assert generate_group(gens, names, max_order=12).elements == expected[0]


@pytest.mark.parametrize("case", range(len(RANDOM_GROUPS)))
def test_generator_orbits_match_all_element_search(case):
    gens, names = RANDOM_GROUPS[case]
    table = generate_group(gens, names, max_order=16)
    census = singular_census(table, require_circles=False)
    assert census == reference_census(table)
    perms = torus._component_permutations(table, [torus._component_code(c) for c in census.components])
    for el, perm in zip(table.elements, perms):
        images = [transform_component(el, comp) for comp in census.components]
        assert images == [census.components[k] for k in perm]


@pytest.mark.parametrize("case", range(len(RANDOM_GROUPS)))
def test_integer_permutations_match_fraction_reference(case):
    gens, names = RANDOM_GROUPS[case]
    table = generate_group(gens, names, max_order=16)
    components = singular_census(table, require_circles=False).components
    perms = torus._component_permutations(table, [torus._component_code(c) for c in components])
    assert perms.tolist() == reference_permutations(table, components)
    for g in table.generator_indices:
        for comp in components:
            assert transform_component(table.elements[g], comp) == reference_transform(table.elements[g], comp)


@pytest.mark.parametrize("case", range(len(RANDOM_GROUPS)))
def test_generator_kernel_matches_all_element_kernel(case):
    gens, names = RANDOM_GROUPS[case]
    table = generate_group(gens, names, max_order=16)
    for k in range(6):
        inv = invariant_forms(table, k)
        assert inv.basis == reference_invariant_basis(table, k)
        assert inv.dimension == forms.burnside_dimension(table, k)


def test_random_groups_have_several_generators_and_partial_kernels():
    tables = [generate_group(g, n, max_order=16) for g, n in RANDOM_GROUPS]
    assert sum(len(t.generator_indices) >= 2 for t in tables) >= 15
    dims = [invariant_forms(t, k).dimension for t in tables for k in range(1, t.dim)]
    assert any(0 < d < 10 for d in dims)


def test_random_censuses_are_not_trivial():
    censuses = [singular_census(generate_group(g, n, max_order=16), require_circles=False)
                for g, n in RANDOM_GROUPS]
    assert sum(c.total_components for c in censuses) >= 100
    assert any(c.orbit_count > 1 for c in censuses)
    assert any(o.translation_elements for c in censuses for o in c.orbits)
    assert {o.representative.dimension for c in censuses for o in c.orbits} >= {0, 1, 2}


def random_unit_pivot_lattice(rng, n, dim):
    """First `dim` rows of a random unimodular matrix, in Hermite form, redrawn
    until every pivot is 1: the lattices that signed permutations produce."""
    while True:
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            q = rng.randint(-2, 2)
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        rng.shuffle(u)
        rows = tuple(tuple(r) for r in hermite_row_basis(u[:dim]))
        if all(next(x for x in r if x) == 1 for r in rows):
            return rows


def canonical_basepoint(point, directions):
    """The integer core's canonical basepoint, as rationals; its q is intrinsic."""
    m = lcm(1, *(x.denominator for x in point))
    (q,), (w,) = torus._canonical_codes([[int(x * m) for x in point]], [m], directions)
    base = tuple(Fraction(k, q) for k in w)
    assert q == lcm(1, *(x.denominator for x in base))
    return base


def test_closed_form_basepoint_matches_enumeration():
    """Any point of a component gives the enumeration's lexicographic minimum.

    Components come from fixed loci of random signed-permutation
    isometries (dimensions 2-5, translation denominators up to 8) and from
    random unit-pivot lattices through random rational points.  Inputs
    with more than 1024 candidates are skipped, because the reference
    enumerates every candidate.
    """
    rng = random.Random(77)
    compared = 0
    while compared < 600:
        n = rng.randint(2, 5)
        if rng.random() < 0.5:
            f = random_signed_permutation(rng, n, range(1, 9), non_diagonal=False)
            comps = [(c.basepoint, c.directions, True) for c in fixed_locus(f)]
        else:
            dirs = random_unit_pivot_lattice(rng, n, rng.randint(1, n - 1))
            point = tuple(Fraction(rng.randrange(q), q) for q in (rng.randint(1, 8) for _ in range(n)))
            comps = [(point, dirs, False)]
        for base, dirs, canonical in comps:
            shift = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in dirs]
            point = tuple(
                base[i] + sum(s * d[i] for s, d in zip(shift, dirs)) + rng.randint(-2, 2)
                for i in range(n)
            )
            expected = reference_basepoint(point, dirs)
            if expected is None:
                continue
            assert canonical_basepoint(point, dirs) == expected
            if canonical:
                assert base == expected
            compared += 1


def random_isometries(seed, count):
    """Seeded signed-permutation isometries of dimensions 1-6 with translation
    denominators up to 12, plus the identity and pure translations."""
    rng = random.Random(seed)
    out = []
    for n in range(1, 7):
        out.append(AffineIsometry.identity(n))
        for q in (2, 3, 12):
            out.append(AffineIsometry.from_diagonal([1] * n, [Fraction(1, q)] + [0] * (n - 1)))
    while len(out) < count:
        n = rng.randint(1, 6)
        non_diagonal = n > 1 and rng.random() < 0.7
        out.append(random_signed_permutation(rng, n, range(1, 13), non_diagonal=non_diagonal))
    return out


def test_cycle_fixed_locus_matches_smith_reference():
    isometries = random_isometries(31, 2400)
    loci = [fixed_locus(f) for f in isometries]
    for f, locus in zip(isometries, loci):
        assert locus == reference_fixed_locus(f)
        for comp in locus:
            assert [list(d) for d in comp.directions] == hermite_row_basis(
                [list(d) for d in comp.directions])
    # The draw covers empty loci, every dimension, several components, and
    # directions along cycles of length >= 2, some with a -1 entry.
    directions = [[d for c in locus for d in c.directions] for locus in loci]
    assert sum(not locus for locus in loci) >= 1000
    assert {comp.dimension for locus in loci for comp in locus} == set(range(7))
    assert sum(len(locus) >= 4 for locus in loci) >= 200
    assert sum(any(sum(map(abs, d)) >= 2 for d in dirs) for dirs in directions) >= 40
    assert sum(any(-1 in d for d in dirs) for dirs in directions) >= 20


def test_canonical_codes_match_lattice_frame_reference():
    rng = random.Random(32)
    for _ in range(400):
        n = rng.randint(2, 6)
        dirs = random_unit_pivot_lattice(rng, n, rng.randint(1, n - 1))
        m = [rng.randint(1, 24) for _ in range(5)]
        nums = [[rng.randint(-50, 50) for _ in range(n)] for _ in m]
        assert torus._canonical_codes(nums, m, dirs) == reference_canonical_codes(nums, m, dirs)


@pytest.mark.parametrize("directions", [((2, 1),), ((1, 0, 1), (0, 3, 1)), ((1, 1), (0, 1))])
def test_canonical_codes_reject_lattices_without_unit_pivots(directions):
    with pytest.raises(ValueError):
        torus._canonical_codes([[1] * len(directions[0])], [4], directions)


# ---------------------------------------------------------------------------
# Larger groups and work counts.


def translated_example_a(spec_a, t: str):
    """example-a plus a translation by t along alpha's circle axis."""
    tau = AffineIsometry.from_diagonal([1] * 5, [Fraction(t), 0, 0, 0, 0])
    return generate_group(spec_a.generators + [tau], spec_a.generator_names + ["tau"])


def test_order64_census(spec_a):
    group = translated_example_a(spec_a, "1/8")
    census = singular_census(group)
    assert group.order == 64
    assert census.total_components == 272
    assert census.orbit_count == 12
    assert sorted(o.size for o in census.orbits) == [4] * 4 + [32] * 8


def counting(monkeypatch, owner, attr, calls):
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def test_run_all_computes_each_fixed_locus_once(spec_a, monkeypatch):
    calls = []
    counting(monkeypatch, torus, "fixed_locus", calls)
    counting(monkeypatch, fstructure, "fixed_locus", calls)
    report = pipeline.run_all(spec_a)
    assert report.overall == "PASS"
    assert report.sections["group"]["order"] == 8
    assert len(calls) == 8


def test_run_all_solves_no_smith_forms(spec_a, monkeypatch):
    calls = []
    counting(monkeypatch, torus, "smith_normal_form", calls)
    counting(monkeypatch, torus, "unimodular_inverse", calls)
    assert pipeline.run_all(spec_a).overall == "PASS"
    assert calls == []


def test_invariant_forms_stack_generators_only(spec_a, monkeypatch):
    group = translated_example_a(spec_a, "1/4")
    rows = []
    original = forms.kernel_basis

    def counted(a):
        rows.append(len(a))
        return original(a)

    monkeypatch.setattr(forms, "kernel_basis", counted)
    for k in range(6):
        rows.clear()
        invariant_forms(group, k)
        assert sum(rows) <= len(group.generator_indices) * math.comb(5, k)
    assert (group.order, len(group.generator_indices)) == (32, 4)


def test_order32_census_images_components_under_generators_only(spec_a, monkeypatch):
    group = translated_example_a(spec_a, "1/4")
    calls = []
    counting(monkeypatch, torus, "transform_component", calls)
    census = singular_census(group)
    assert (group.order, census.total_components, census.orbit_count) == (32, 144, 12)
    assert len(calls) <= 4 * 144
