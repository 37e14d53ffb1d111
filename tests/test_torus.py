import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    apply,
    apply_linear,
    brute_force_closure,
    brute_force_components,
    brute_force_fixed_points,
    component_grid_points,
    compose,
    compose_products,
    diagonal,
    fraction_key,
    identity,
    random_involution,
)
from kummerlab import torus
from kummerlab.torus import (
    AffineIsometry,
    _signed_permutation,
    GroupClosureError,
    fixed_locus,
    generate_group,
    pi1_certificate,
    singular_census,
)

HALF = Fraction(1, 2)
NOT_AN_ISOMETRY = "not a flat-torus isometry: linear part must be a signed permutation matrix"


def row_scan(linear):
    """(perm, signs) by scanning each row for its nonzero entry, or None
    when the matrix is not a signed permutation."""
    n = len(linear)
    perm, signs = [], []
    for row in linear:
        if len(row) != n:
            return None
        nonzero = [j for j in range(n) if row[j] != 0]
        if len(nonzero) != 1 or row[nonzero[0]] not in (1, -1):
            return None
        perm.append(nonzero[0])
        signs.append(row[nonzero[0]])
    return (tuple(perm), tuple(signs)) if len(set(perm)) == n else None


def test_reader_matches_row_scan_on_every_signed_permutation():
    for n in range(5):
        for perm in itertools.permutations(range(n)):
            for signs in itertools.product((1, -1), repeat=n):
                linear = tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(n)) for i in range(n))
                assert _signed_permutation(linear) == row_scan(linear) == (perm, signs)
                el = AffineIsometry(linear, (0,) * n)
                assert (el.perm, el.signs) == (perm, signs)


def test_reader_rejects_exactly_what_the_row_scan_rejects():
    """Every matrix with entries in -1..1 up to 3x3, and in -2..2 up to 2x2."""
    rejected = 0
    for n, entries in ((1, range(-2, 3)), (2, range(-2, 3)), (3, range(-1, 2))):
        for flat in itertools.product(entries, repeat=n * n):
            linear = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
            expected = row_scan(linear)
            if expected is None:
                rejected += 1
                with pytest.raises(ValueError) as err:
                    _signed_permutation(linear)
                assert str(err.value) == NOT_AN_ISOMETRY
            else:
                assert _signed_permutation(linear) == expected
    assert rejected == (5 - 2) + (5**4 - 8) + (3**9 - 48)  # all but the signed permutations


@pytest.mark.parametrize(
    "linear",
    [
        ((1, 0), (0, 1), (0, 0)),  # not square
        ((1, 0, 0), (0, 1)),  # ragged
        ((1, 0), (0, 2)),  # an entry 2
        ((1, 0), (0, 0)),  # a zero row
        ((1, 1), (0, 1)),  # two nonzeros in a row
        ((0, -1), (0, 1)),  # a repeated column
    ],
)
def test_reader_and_isometry_reject_with_one_message(linear):
    with pytest.raises(ValueError) as err:
        _signed_permutation(linear)
    assert str(err.value) == NOT_AN_ISOMETRY
    with pytest.raises(ValueError) as err:
        AffineIsometry(linear, (0,) * len(linear))
    assert str(err.value) == NOT_AN_ISOMETRY


def test_read_permutation_stays_out_of_equality_hash_and_repr():
    swap = AffineIsometry(((0, -1), (1, 0)), (HALF, 0))
    same = AffineIsometry(((0, -1), (1, 0)), (Fraction(3, 2), 0))
    assert (swap.perm, swap.signs) == ((1, 0), (-1, 1))
    assert swap == same and hash(swap) == hash(same)
    assert repr(swap) == f"AffineIsometry(linear={swap.linear!r}, translation={swap.translation!r})"
    with pytest.raises(AttributeError):
        swap.perm = (0, 1)


def test_compose_matches_displayed_product(group_a):
    ab = compose(group_a.elements[1], group_a.elements[2])  # alpha, beta
    assert [ab.linear[i][i] for i in range(5)] == [-1, 1, 1, -1, 1]
    assert ab.translation == (0, HALF, 0, HALF, 0)


def test_compose_identity_is_neutral(group_a):
    ident = identity(5)
    for el in group_a.elements:
        assert compose(el, ident) == el
        assert compose(ident, el) == el


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_generate_group_first_construction(group_a):
    assert group_a.order == 8
    assert group_a.abelian
    assert group_a.exponent == 2
    assert group_a.names[0] == "e"
    # Closure: compose stays inside the elements, every element has an
    # inverse, and mul agrees with compose.
    products = compose_products(group_a.elements)
    assert all(0 in row for row in products)
    everything = range(group_a.order)
    assert [[group_a.mul(i, j) for j in everything] for i in everything] == products


def test_generate_group_identity_only():
    table = generate_group([identity(4)], ["e"])
    assert table.order == 1


def test_generate_group_matches_brute_force_closure():
    rng = random.Random(31)
    built = 0
    while built < 5:
        f = random_involution(rng, 3)
        g = random_involution(rng, 3)
        if compose(f, g) != compose(g, f):
            continue
        built += 1
        table = generate_group([f, g])
        assert set(table.elements) == brute_force_closure([f, g])


def test_generate_group_cap():
    # Order-8 translation generates a cyclic group larger than the cap.
    t = identity(2)
    shift = AffineIsometry(t.linear, (Fraction(1, 16), Fraction(0)))
    with pytest.raises(GroupClosureError):
        generate_group([shift], max_order=8)


def test_associativity_spot_check(group_a):
    grid = [
        tuple(Fraction(k, 3) for k in combo)
        for combo in itertools.product(range(3), repeat=5)
    ][:40]
    for f in group_a.elements:
        for g in group_a.elements[:4]:
            fg = compose(f, g)
            for pt in grid[:5]:
                assert apply(fg, pt) == apply(f, apply(g, pt))


def test_fixed_locus_generator_pattern(group_a):
    comps = fixed_locus(group_a.elements[1])  # alpha
    assert len(comps) == 16
    for comp in comps:
        assert comp.dimension == 1
        assert comp.directions == ((1, 0, 0, 0, 0),)
        p = comp.basepoint
        assert p[0] == 0
        assert p[1] in (0, HALF) and p[2] in (0, HALF) and p[4] in (0, HALF)
        assert p[3] in (Fraction(1, 4), Fraction(3, 4))


def test_fixed_locus_composites_empty(group_a):
    for name in ("alpha*beta", "alpha*gamma", "beta*gamma", "alpha*beta*gamma"):
        el = group_a.elements[group_a.names.index(name)]
        assert fixed_locus(el) == []


def test_components_are_integer_codes_listed_in_basepoint_order(group_a, group_b):
    """basepoint is w/q in lowest terms, and the census lists its components
    by (basepoint, directions) as it did when they were stored in Fractions."""
    tau = diagonal([1] * 5, [Fraction(1, 4), 0, 0, 0, 0])
    group_t = generate_group(group_a.elements[1:4] + [tau])
    for group in (group_a, group_b, group_t):
        census = singular_census(group)
        for comp in census.components:
            assert comp.basepoint == tuple(Fraction(k, comp.q) for k in comp.w)
            assert all(0 <= k < comp.q for k in comp.w) and math.gcd(comp.q, *comp.w) == 1
            assert comp.key == (comp.directions, comp.q, comp.w)
        assert census.components == sorted(census.components, key=fraction_key)
        assert len(set(census.components)) == census.total_components


def test_fixed_loci_and_census_construct_no_fraction_per_component(group_a, monkeypatch):
    """Only each orbit's length factor is a Fraction; fixed loci and the
    components' images stay on integers."""
    tau = diagonal([1] * 5, [Fraction(1, 4), 0, 0, 0, 0])
    group = generate_group(group_a.elements[1:4] + [tau])
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(torus, "Fraction", counted)
    loci = [fixed_locus(el) for el in group.elements]
    assert sum(map(len, loci)) > 0 and made == []
    census = singular_census(group)
    assert len(made) == census.orbit_count == 12


def test_fixed_locus_identity_whole_torus():
    comps = fixed_locus(identity(5))
    assert len(comps) == 1
    assert comps[0].dimension == 5
    assert all(x == 0 for x in comps[0].basepoint)


def test_fixed_locus_components_disjoint_and_match_brute_force(group_a, group_b):
    for group in (group_a, group_b):
        for i, el in enumerate(group.elements):
            if i == 0:
                continue  # identity covered by its own test
            comps = fixed_locus(el)
            grids = [component_grid_points(c) for c in comps]
            for a in range(len(grids)):
                for b in range(a + 1, len(grids)):
                    assert not (grids[a] & grids[b])
            union = set().union(*grids) if grids else set()
            assert union == brute_force_fixed_points(el)
            if comps:
                assert len(brute_force_components(el)) == len(comps)


def run_fixed_locus_oracle_cases(cases: int = 100, seed: int = 41) -> int:
    """Oracle equivalence on random 3-torus involution pairs.

    For each (Z_2)^2 action generated by two commuting involutions with
    translation denominators in {2, 4}: every element's fixed locus must
    reproduce the exhaustive denominator-8 scan, grouped by connectivity.
    """
    rng = random.Random(seed)
    done = 0
    while done < cases:
        f = random_involution(rng, 3)
        g = random_involution(rng, 3)
        if compose(f, g) != compose(g, f):
            continue
        done += 1
        table = generate_group([f, g])
        for el in table.elements:
            comps = fixed_locus(el)
            union = set().union(*(component_grid_points(c) for c in comps)) if comps else set()
            assert union == brute_force_fixed_points(el)
            if comps:
                assert len(brute_force_components(el)) == len(comps)
    return done


def test_fixed_locus_oracle_on_random_three_torus_actions():
    assert run_fixed_locus_oracle_cases(25, seed=43) == 25


def test_census_first_construction(group_a):
    census = singular_census(group_a)
    assert census.total_components == 48
    assert census.orbit_count == 12
    assert all(o.size == 4 for o in census.orbits)
    assert all(o.local_model == "S¹×(ℂ²/±1)" for o in census.orbits)
    assert all(o.quotient_length_factor == 1 for o in census.orbits)
    assert all(len(o.pointwise_stabilizer) == 2 for o in census.orbits)


def test_census_second_construction(group_b):
    census = singular_census(group_b)
    assert census.total_components == 48
    assert census.orbit_count == 16
    halved = [o for o in census.orbits if o.translation_elements]
    plain = [o for o in census.orbits if not o.translation_elements]
    assert len(halved) == 8 and len(plain) == 8
    for o in halved:
        assert o.quotient_length_factor == Fraction(1, 2)
        assert o.local_model == "(ℂ²/±1 × S¹)/ℤ₂"
        names = {group_b.names[i] for i in o.translation_elements}
        assert "alpha*beta" in names
    for o in plain:
        assert o.quotient_length_factor == 1
        assert o.local_model == "S¹×(ℂ²/±1)"
    sizes = sorted(o.size for o in census.orbits)
    assert sum(sizes) == 48
    assert sizes == [2] * 8 + [4] * 8


def test_census_trivial_group_empty():
    census = singular_census(generate_group([identity(5)]))
    assert census.total_components == 0
    assert census.orbits == []


def test_census_traces_non_circle_components():
    # The census stage refuses them (test_pipeline); the census traces them.
    f = diagonal([1, 1, -1], [0, 0, 0])
    census = singular_census(generate_group([f]))
    assert [(o.representative.dimension, o.size, o.local_model) for o in census.orbits] == [(2, 1, None)] * 2


def test_census_stabilizer_properties(group_a, group_b):
    for group in (group_a, group_b):
        census = singular_census(group)
        for orbit in census.orbits:
            rep = orbit.representative
            assert set(orbit.pointwise_stabilizer) <= set(orbit.setwise_stabilizer)
            for gi in orbit.pointwise_stabilizer:
                el = group.elements[gi]
                assert apply(el, rep.basepoint) == rep.basepoint
                for dv in rep.directions:
                    assert apply_linear(el, dv) == list(dv)
            for gi in orbit.translation_elements:
                el = group.elements[gi]
                assert apply(el, rep.basepoint) != rep.basepoint
                for dv in rep.directions:
                    assert apply_linear(el, dv) == list(dv)
            assert orbit.quotient_length_factor == Fraction(
                len(orbit.pointwise_stabilizer), len(orbit.setwise_stabilizer)
            )


def test_pi1_certificate_first_construction(group_a):
    cert = pi1_certificate(group_a)
    assert cert.passed
    w = {j + 1: group_a.names[i] for j, i in cert.direction_witnesses.items()}
    assert w[1] == "beta"
    assert w[2] == w[3] == w[5] == "alpha"
    # Direction 4: any element reversing e4 with nonempty fixed locus works.
    witness = group_a.elements[cert.direction_witnesses[3]]
    assert apply_linear(witness, [0, 0, 0, 1, 0]) == [0, 0, 0, -1, 0]
    assert fixed_locus(witness)
    assert cert.generated_by_fixed
    assert "heuristic" in cert.note


def test_pi1_certificate_trivial_group_fails():
    cert = pi1_certificate(generate_group([identity(5)]))
    assert not cert.passed
    assert all(w is None for w in cert.direction_witnesses.values())


def test_pi1_certificate_second_construction_brute_force(group_b):
    cert = pi1_certificate(group_b)
    assert cert.passed
    # Exhaustive re-check of both conditions over all 8 elements.
    loci = {i: fixed_locus(el) for i, el in enumerate(group_b.elements)}
    for j in range(5):
        target = [-1 if k == j else 0 for k in range(5)]
        unit = [1 if k == j else 0 for k in range(5)]
        assert any(
            loci[i] and apply_linear(group_b.elements[i], unit) == target
            for i in range(group_b.order)
        )
    fixed = [i for i in range(group_b.order) if loci[i]]
    assert group_b.subgroup_generated(fixed) == frozenset(range(8))
