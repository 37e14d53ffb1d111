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
import tracemalloc
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    apply_linear,
    brute_force_closure,
    component,
    compose_products,
    example_spec,
    fraction_key,
    lattice_adapted_basis,
)
from kummerlab import forms, fstructure, intlinalg, pipeline, torus
from kummerlab.forms import form_basis, induced_action, invariant_forms
from kummerlab.intlinalg import (
    hermite_row_basis,
    int_det,
    kernel_basis,
    smith_normal_form,
    unimodular_inverse,
)
from kummerlab.specfile import parse_construction
from kummerlab.torus import (
    AffineIsometry,
    GroupClosureError,
    compose,
    fixed_locus,
    generate_group,
    singular_census,
    transform_component,
)

DATA = Path(__file__).resolve().parent / "data"

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
    product = compose_products(elements)
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
    return sorted((component(tuple(Fraction(k, qr) for k in wr), directions) for qr, wr in zip(q, w)),
                  key=fraction_key)


def reference_line_basepoint(point, direction):
    """Lexicographic minimum of the circle {point + s·direction} mod 1.

    Coordinates before the direction's first nonzero entry d_j are constant
    on the circle, and x_j sweeps all of R/Z, so the minimum has x_j = 0:
    s = (k - point_j)/d_j for one of the |d_j| residues k.
    """
    j = next(i for i, x in enumerate(direction) if x)
    return min(
        tuple((p + Fraction(k - point[j], direction[j]) * x) % 1 for p, x in zip(point, direction))
        for k in range(abs(direction[j]))
    )


def reference_basepoint(point, directions, cap=1024):
    """Lexicographic minimum over all q^dim candidates of the component.

    Beyond `cap` candidates a circle is minimized by reference_line_basepoint,
    and any other component returns None.
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
        return reference_line_basepoint(point, directions[0]) if dim == 1 else None
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
        tuple(r) for r in hermite_row_basis([apply_linear(el, dv) for dv in comp.directions])
    )
    base = reference_basepoint(el.apply(comp.basepoint), dirs)
    assert base is not None, "too many candidates for the enumeration"
    return component(base, dirs)


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


def composed_preimages(group, pre, size):
    """Every element's preimage map of the `size` components, from the generators'
    maps along the spanning tree: p = i∘g gives p⁻¹(c) = g⁻¹(i⁻¹(c))."""
    back = [list(range(size))]
    for i, g in group.factors[1:]:
        back.append([pre[g][c] for c in back[i]])
    return back


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


def census_view(census):
    """The census as plain values: its components, then per orbit the
    representative, the member components, the size, the stabilizers, the
    translation elements, the length factor and the local model."""
    components = list(census.components)
    return components, [
        (o.representative, [c for c, k in zip(components, census.orbit) if k == j], o.size,
         o.setwise_stabilizer, o.pointwise_stabilizer, o.translation_elements,
         o.quotient_length_factor, o.local_model)
        for j, o in enumerate(census.orbits)
    ]


def reference_census(group):
    """census_view's values, with orbits found by applying every element and
    stabilizers tested element by element."""
    seen = {}
    for el in group.elements[1:]:
        for comp in fixed_locus(el):
            seen.setdefault(comp.key, comp)
    components = sorted(seen.values(), key=fraction_key)
    unassigned = {fraction_key(c): c for c in components}
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
                    if fraction_key(image) not in orbit:
                        orbit[fraction_key(image)] = image
                        nxt.append(image)
            frontier = nxt
        for key in orbit:
            del unassigned[key]
        rep = orbit[min(orbit)]

        def keeps_directions(el):
            return all(apply_linear(el, dv) == list(dv) for dv in rep.directions)

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
        orbits.append((rep, sorted(orbit.values(), key=fraction_key), len(orbit), setwise, pointwise,
                       translations, Fraction(len(pointwise), len(setwise)), model))
    orbits.sort(key=lambda o: fraction_key(o[0]))
    return components, orbits


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
    generator_elements = [elements.index(g) for g in gens]
    assert table.right == [[row[g] for g in generator_elements] for row in product]
    assert (table.abelian, table.exponent) == (abelian, exponent)
    for p, (i, g) in enumerate(table.factors):
        assert compose(table.elements[i], table.elements[g]) == table.elements[p]


def golden_spec_groups():
    """(generators, names) of the six specs whose reports tests/data/golden pins."""
    specs = [example_spec("example-a.spec"), example_spec("example-b.spec")] + [
        parse_construction(str(DATA / f"{stem}.spec"))
        for stem in ("example-b-four-chart", "group-order32", "order-256", "example-a-shift70")
    ]
    return [(spec.generators, spec.generator_names) for spec in specs]


CODE_CASES = RANDOM_GROUPS + golden_spec_groups()


@pytest.mark.parametrize("case", range(len(CODE_CASES)))
def test_closure_elements_are_the_isometries_of_their_views(case):
    """A closure element holds its code over the closure's common
    denominator N, and equals, hashes and reprs as the isometry built from
    its linear and translation views, whose own denominator may be smaller."""
    gens, names = CODE_CASES[case]
    table = generate_group(gens, names, max_order=256)
    denom = lcm(1, *(g.denom for g in gens))
    assert table.denom == denom
    for el in table.elements:
        built = AffineIsometry(el.linear, el.translation)
        assert el == built and built == el
        assert hash(el) == hash(built) and repr(el) == repr(built)
        assert el.denom == denom and (el.perm, el.signs) == (built.perm, built.signs)
        assert el.nums == tuple(t * (denom // built.denom) for t in built.nums)


def test_closure_and_fixed_loci_build_no_fraction(monkeypatch):
    """The order-32 closure and all its fixed loci run on the elements'
    integer codes: no Fraction is made and no matrix view is built."""
    spec = parse_construction(str(DATA / "group-order32.spec"))
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(torus, "Fraction", counted)
    group = generate_group(spec.generators, spec.generator_names)
    loci = group.fixed_loci
    assert (group.order, len(loci[0]), sum(map(len, loci[1:]))) == (32, 1, 144)
    assert made == []
    assert not any("linear" in vars(el) or "translation" in vars(el) for el in group.elements)


@pytest.mark.parametrize("case", range(len(RANDOM_GROUPS)))
def test_mul_matches_compose_products(case):
    gens, names = RANDOM_GROUPS[case]
    table = generate_group(gens, names, max_order=16)
    everything = range(table.order)
    assert [[table.mul(i, j) for j in everything] for i in everything] == compose_products(table.elements)


def test_subgroup_generated_matches_brute_force_closure():
    rng = random.Random(14)
    ratios = set()
    for gens, names in RANDOM_GROUPS:
        table = generate_group(gens, names, max_order=16)
        for _ in range(4):
            subset = rng.sample(range(table.order), rng.randint(0, min(4, table.order)))
            got = table.subgroup_generated(subset)
            expected = brute_force_closure([table.elements[i] for i in subset] or [table.elements[0]])
            assert {table.elements[i] for i in got} == expected
            ratios.add(table.order // len(got))
    assert ratios > {1}  # whole groups and proper subgroups both occur


def test_exponent_reads_linear_order_and_translation_power():
    """A 3-cycle whose cube is a translation of order 3, with a reflection and
    a quarter translation along the axis it reverses."""
    cycle = AffineIsometry(((0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 0, 1)),
                           (Fraction(1, 3), 0, 0, 0))
    reflection = AffineIsometry.from_diagonal((1, 1, 1, -1), (0, 0, 0, Fraction(1, 2)))
    quarter = AffineIsometry.from_diagonal((1, 1, 1, 1), (0, 0, 0, Fraction(1, 4)))
    gens, names = [cycle, reflection, quarter], ["c", "r", "t"]
    cube = compose(cycle, compose(cycle, cycle))
    assert cube.linear == AffineIsometry.identity(4).linear and any(cube.translation)
    table = generate_group(gens, names, max_order=128)
    _elements, _names, _product, abelian, exponent = reference_group(gens, names, max_order=128)
    assert (table.abelian, table.exponent) == (abelian, exponent) == (False, 36)


def test_group_core_memory_is_linear_in_the_order(spec_a):
    """Closure, census and π₁ at order 1024 (example-a plus 1/128 along e1)
    keep no |G|²- or |G|×components-sized table."""
    tau = AffineIsometry.from_diagonal((1,) * 5, (Fraction(1, 128), 0, 0, 0, 0))
    tracemalloc.start()
    try:
        group = generate_group([*spec_a.generators, tau], max_order=1024)
        census = singular_census(group)
        torus.pi1_certificate(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (group.order, census.total_components) == (1024, 4112)
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def reference_orientable(group):
    return all(int_det([list(r) for r in el.linear]) == 1 for el in group.elements)


def reference_witnesses(group, fixed_elements):
    """Per axis j, the first fixed-point element whose linear part sends e_j to -e_j."""
    n = group.dim
    unit = [[int(k == j) for k in range(n)] for j in range(n)]
    return {
        j: next((i for i in fixed_elements
                 if apply_linear(group.elements[i], unit[j]) == [-x for x in unit[j]]), None)
        for j in range(n)
    }


@pytest.mark.parametrize("case", range(len(RANDOM_GROUPS)))
def test_generators_decide_abelian_orientation_and_witnesses(case):
    gens, names = RANDOM_GROUPS[case]
    group = generate_group(gens, names, max_order=16)
    everything = range(group.order)
    product = compose_products(group.elements)
    assert group.abelian == all(product[i][j] == product[j][i] for i in everything for j in everything)
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
    assert census_view(census) == reference_census(table)
    pre = torus._generator_preimages(table, census.components)
    back = composed_preimages(table, pre, census.total_components)
    assert len(back) == table.order
    for el, preimages in zip(table.elements, back):
        assert [transform_component(el, census.components[k]) for k in preimages] == census.components


@pytest.mark.parametrize("case", range(len(RANDOM_GROUPS)))
def test_integer_permutations_match_fraction_reference(case):
    gens, names = RANDOM_GROUPS[case]
    table = generate_group(gens, names, max_order=16)
    components = singular_census(table, require_circles=False).components
    pre = torus._generator_preimages(table, components)
    assert sorted(pre) == table.generator_indices
    back = composed_preimages(table, pre, len(components))
    for perm, preimages in zip(reference_permutations(table, components), back, strict=True):
        assert [preimages[k] for k in perm] == list(range(len(components)))
    for g in table.generator_indices:
        for comp in components:
            assert transform_component(table.elements[g], comp) == reference_transform(table.elements[g], comp)


@pytest.mark.parametrize("case", range(len(RANDOM_GROUPS)))
def test_generator_kernel_matches_all_element_kernel(case):
    gens, names = RANDOM_GROUPS[case]
    table = generate_group(gens, names, max_order=16)
    for k in range(table.dim + 2):  # every degree, and one beyond with no forms
        inv = invariant_forms(table, k)
        assert inv.basis == reference_invariant_basis(table, k)
        assert inv.dimension == (forms.burnside_dimensions(table) + [0])[k]


def orbits(group, k):
    """The orbits of the group on the degree-k basis monomials, signs ignored."""
    mats = [induced_action(el.linear, k) for el in group.elements]
    seen, out = set(), []
    for b in range(len(mats[0])):
        if b not in seen:
            orbit = {next(r for r, row in enumerate(m) if row[b]) for m in mats}
            seen |= orbit
            out.append(orbit)
    return out


def test_random_groups_have_several_generators_and_partial_kernels():
    tables = [generate_group(g, n, max_order=16) for g, n in RANDOM_GROUPS]
    assert sum(len(t.generator_indices) >= 2 for t in tables) >= 15
    dims = [invariant_forms(t, k).dimension for t in tables for k in range(1, t.dim)]
    assert any(0 < d < 10 for d in dims)
    # Permutation parts make orbit sums of several monomials, some with a
    # negative sign, and orbits whose signs disagree contribute no form.
    vectors = [v for t in tables for k in range(1, t.dim) for v in invariant_forms(t, k).basis]
    assert any(sum(map(abs, v)) > 1 and min(v) < 0 for v in vectors)
    assert any(len(invariant_forms(t, k).basis) < len(orbits(t, k)) for t in tables for k in range(1, t.dim))


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


def reduced_codes(nums, m):
    """(q, w) per row of numerators over m: w/q in lowest terms."""
    out = [(m // math.gcd(m, *row), tuple(x // math.gcd(m, *row) for x in row)) for row in nums.tolist()]
    return [q for q, _w in out], [w for _q, w in out]


def canonical_basepoint(point, directions):
    """The integer core's canonical basepoint, as rationals; its q is intrinsic."""
    m = lcm(1, *(x.denominator for x in point))
    nums = torus._canonical_codes(np.array([[int(x * m) for x in point]], dtype=object), m, (directions,), [0])
    (q,), (w,) = reduced_codes(nums, m)
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
            if len(dirs) == 1:
                assert reference_line_basepoint(point, dirs[0]) == expected
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
        m = rng.randint(1, 24)
        nums = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(5)]
        for dtype in (np.int64, object):
            got = torus._canonical_codes(np.array(nums, dtype=dtype), m, (dirs,), np.zeros(5, np.intp))
            assert got.dtype == dtype
            assert reduced_codes(got, m) == reference_canonical_codes(nums, [m] * 5, dirs)


@pytest.mark.parametrize("directions", [((2, 1),), ((1, 0, 1), (0, 3, 1)), ((1, 1), (0, 1))])
def test_canonical_codes_reject_lattices_without_unit_pivots(directions):
    with pytest.raises(ValueError):
        torus._canonical_codes(np.ones((1, len(directions[0])), np.int64), 4, (directions,), [0])


def test_preimages_reject_a_component_set_the_generators_leave(spec_a):
    """Dropping one circle of example-a's census leaves a set that some
    generator maps outside itself."""
    group = generate_group(spec_a.generators, spec_a.generator_names)
    full = singular_census(group).components
    part = torus.Components(full.lattices, full.lattice[1:], full.m, full.points[1:])
    with pytest.raises(AssertionError, match="orbit left the census component set"):
        torus._generator_preimages(group, part)


def test_census_beyond_int64_matches_references():
    """example-a with its origin moved by a vector over 2^70: the common
    denominator 2^69 is beyond the int64 bound, so the fixed loci and the
    census run the same functions on Python ints (object arrays)."""
    spec = parse_construction(str(DATA / "example-a-shift70.spec"))
    group = generate_group(spec.generators, spec.generator_names)
    assert group.denom == 2**69 and torus._code_dtype(5, 2**70) is object
    assert all(el.denom == 2**69 for el in group.elements)
    assert torus._code_dtype(5, 2**57) is np.int64
    for el, locus in zip(group.elements, group.fixed_loci):
        assert locus.points.dtype == object
        assert locus == reference_fixed_locus(el)
    census = singular_census(group)
    assert census.components.points.dtype == object
    assert census_view(census) == reference_census(group)
    assert (group.order, census.total_components, census.orbit_count) == (8, 48, 12)
    assert max(c.q for c in census.components) == 2**70


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
    """Fixed loci come from cycles and the invariant forms are orbit sums: a
    full run builds no Smith form, unimodular inverse, integer kernel or
    induced-action matrix."""
    calls = []
    for owner, attr in ((torus, "smith_normal_form"), (torus, "unimodular_inverse"),
                        (intlinalg, "smith_normal_form"), (intlinalg, "kernel_basis"), (forms, "induced_action")):
        counting(monkeypatch, owner, attr, calls)
    report = pipeline.run_all(spec_a)
    assert report.overall == "PASS" and report.sections["betti"]["orbifold"] == [1, 0, 1, 1, 0, 1]
    assert calls == []


def test_invariant_forms_stack_generators_only(spec_a, monkeypatch):
    """The orbit walk images each basis monomial under the generators only,
    never under all 32 elements."""
    group = translated_example_a(spec_a, "1/4")
    calls = []
    counting(monkeypatch, forms, "_monomial_image", calls)
    for k in range(6):
        calls.clear()
        inv = invariant_forms(group, k)
        assert len(calls) <= len(group.generator_indices) * math.comb(5, k)
        assert inv.dimension == forms.burnside_dimensions(group)[k]
    assert (group.order, len(group.generator_indices)) == (32, 4)


def test_order32_census_images_components_under_generators_only(spec_a, monkeypatch):
    """The census images each component once under each of the 4 generators,
    in batches of rows, and under no other element."""
    group = translated_example_a(spec_a, "1/4")
    group.fixed_loci  # the loci compute no image
    images = []
    original = torus._image_codes

    def counted(g, table):
        images.append((next(i for i, el in enumerate(group.elements) if el is g), len(table)))
        return original(g, table)

    monkeypatch.setattr(torus, "_image_codes", counted)
    census = singular_census(group)
    assert (group.order, census.total_components, census.orbit_count) == (32, 144, 12)
    assert {g for g, _rows in images} == set(group.generator_indices) == {1, 2, 3, 4}
    assert sum(rows for _g, rows in images) == 4 * 144
