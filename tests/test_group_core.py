"""The integer group core against the direct algorithms it replaced.

The references are kept here verbatim in spirit: the BFS closure with a
product table built by `compose`, the canonical basepoint by enumerating
all q^dim candidates, the image of a component computed in `Fraction`s,
the generators' component permutations from that image, the census orbit
search that applies every group element to every component with
per-element stabilizer tests, and the invariant forms as the kernel of
the induced actions of every element.  The fast paths must reproduce
them exactly on seeded random groups whose linear parts are non-diagonal
signed permutations.  Call counts taken through the module bindings
guard the work the fast paths save.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from math import lcm

import pytest

from conftest import lattice_adapted_basis
from kummerlab import forms, fstructure, pipeline, torus
from kummerlab.forms import form_basis, induced_action, invariant_forms
from kummerlab.intlinalg import hermite_row_basis, kernel_basis, unimodular_inverse
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


def random_saturated_lattice(rng, n, dim):
    """First `dim` rows of a random unimodular matrix, in Hermite form."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    rng.shuffle(u)
    return tuple(tuple(r) for r in hermite_row_basis(u[:dim]))


def canonical_basepoint(point, directions):
    """The integer core's canonical basepoint, as rationals."""
    m = lcm(1, *(x.denominator for x in point))
    (q,), (w,) = torus._canonical_codes([[int(x * m) for x in point]], [m], directions, {})
    return tuple(Fraction(k, q) for k in w)


def test_closed_form_basepoint_matches_enumeration():
    """Any point of a component gives the enumeration's lexicographic minimum.

    Components come from fixed loci of random signed-permutation
    isometries (dimensions 2-5, translation denominators up to 8) and from
    random saturated lattices through random rational points.  Inputs
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
            dirs = random_saturated_lattice(rng, n, rng.randint(1, n - 1))
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
