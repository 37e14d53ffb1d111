import itertools
import random
from fractions import Fraction

import pytest

from conftest import averaging_projector, diagonal, identity
from kummerlab import forms
from kummerlab.forms import (
    BettiTable,
    burnside_dimensions,
    exterior_traces,
    form_basis,
    induced_action,
    invariant_forms,
    orbifold_betti,
    resolved_betti,
)
from kummerlab.torus import (
    AffineIsometry,
    Pi1Certificate,
    SingularCensus,
    generate_group,
    pi1_certificate,
    singular_census,
)


def pullback_oracle(linear, k):
    """Independent induced-action matrix: expand the pullback of each basis
    monomial one factor at a time and sort with explicit sign bookkeeping."""
    n = len(linear)
    basis = form_basis(n, k)
    index = {b: i for i, b in enumerate(basis)}
    mat = [[0] * len(basis) for _ in range(len(basis))]
    for col, subset in enumerate(basis):
        factors = []
        for i in subset:
            row = linear[i - 1]
            j = next(jj for jj, v in enumerate(row) if v != 0)
            factors.append((j + 1, row[j]))
        sign = 1
        for _, s in factors:
            sign *= s
        idxs = [j for j, _ in factors]
        # Bubble sort, one adjacent transposition at a time.
        changed = True
        while changed:
            changed = False
            for t in range(len(idxs) - 1):
                if idxs[t] > idxs[t + 1]:
                    idxs[t], idxs[t + 1] = idxs[t + 1], idxs[t]
                    sign = -sign
                    changed = True
        mat[index[tuple(idxs)]][col] = sign
    return mat


def test_induced_action_sign_cancellation():
    lin = [[1, 0, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, -1, 0, 0], [0, 0, 0, -1, 0], [0, 0, 0, 0, -1]]
    mat = induced_action(lin, 2)
    basis = form_basis(5, 2)
    i23 = basis.index((2, 3))
    assert mat[i23][i23] == 1


def test_induced_action_generator_reads(group_a):
    basis = form_basis(5, 2)
    i45 = basis.index((4, 5))
    i23 = basis.index((2, 3))
    alpha, beta, gamma = group_a.elements[1:4]
    assert induced_action(alpha.linear, 2)[i45][i45] == 1
    assert induced_action(beta.linear, 2)[i23][i23] == 1
    assert induced_action(gamma.linear, 2)[i23][i23] == 1


def test_induced_action_identity_and_degenerate_degrees():
    ident = identity(4)
    for k in range(5):
        mat = induced_action(ident.linear, k)
        size = len(form_basis(4, k))
        assert mat == [[1 if i == j else 0 for j in range(size)] for i in range(size)]


def test_induced_action_matches_pullback_oracle_with_permutations():
    # Signed permutation with a swap block: parity bookkeeping must agree
    # with the one-transposition oracle in every degree.
    lin = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
    for k in range(5):
        assert induced_action(lin, k) == pullback_oracle(lin, k)


def test_invariant_forms_first_construction(group_a):
    inv = invariant_forms(group_a, 2)
    assert inv.dimension == 1
    assert inv.basis_strings() == ["dx2∧dx3"]


def test_invariant_forms_second_construction(group_b):
    inv = invariant_forms(group_b, 2)
    assert inv.dimension == 1
    assert inv.basis_strings() == ["dx3∧dx4"]


def test_invariant_forms_trivial_group():
    table = generate_group([identity(5)])
    assert invariant_forms(table, 2).dimension == 10


def test_orbifold_betti_tables(group_a, group_b):
    assert orbifold_betti(group_a).b == [1, 0, 1, 1, 0, 1]
    assert orbifold_betti(group_b).b == [1, 0, 1, 1, 0, 1]
    trivial = generate_group([identity(5)])
    assert orbifold_betti(trivial).b == [1, 5, 10, 10, 5, 1]


def test_orbifold_b3_by_character_enumeration(group_a):
    # Independent count: apply the three diagonal sign characters to each
    # of the ten 3-form monomials.
    signs = [[el.linear[i][i] for i in range(5)] for el in group_a.elements[1:4]]
    count = 0
    for triple in itertools.combinations(range(5), 3):
        if all(s[triple[0]] * s[triple[1]] * s[triple[2]] == 1 for s in signs):
            count += 1
    table = orbifold_betti(group_a)
    assert count == table.b[3] == 1
    assert table.b[3] == table.b[2]  # duality cross-check


def test_duality_both_examples(group_a, group_b):
    assert orbifold_betti(group_a).duality_holds()
    assert orbifold_betti(group_b).duality_holds()


def test_invariant_basis_fixed_by_every_element(group_a, group_b):
    for group in (group_a, group_b):
        for k in (1, 2, 3):
            inv = invariant_forms(group, k)
            size = len(inv.form_basis)
            for el in group.elements:
                rho = induced_action(el.linear, k)
                for vec in inv.basis:
                    image = [
                        sum(rho[r][c] * vec[c] for c in range(size)) for r in range(size)
                    ]
                    assert image == list(vec)


def test_projector_idempotent_and_trace(group_a, group_b):
    for group in (group_a, group_b):
        for k in range(6):
            p = averaging_projector(group, k)
            size = len(p)
            p2 = [
                [sum(p[i][m] * p[m][j] for m in range(size)) for j in range(size)]
                for i in range(size)
            ]
            assert p2 == p
            trace = sum(p[i][i] for i in range(size))
            dim = invariant_forms(group, k).dimension
            assert trace == dim
            assert burnside_dimensions(group)[k] == Fraction(dim)


def test_resolved_betti_both_examples(group_a, group_b):
    for group, b2 in ((group_a, 13), (group_b, 17)):
        table = orbifold_betti(group)
        census = singular_census(group)
        cert = pi1_certificate(group)
        res = resolved_betti(table, census, cert)
        assert res.b2_resolved == b2
        assert res.b3_resolved == b2
        assert res.euler == 0
        assert res.resolved_vector() == [1, 0, b2, b2, 0, 1]


def test_resolved_betti_zero_circles():
    table = BettiTable(b=[1, 0, 3, 3, 0, 1])
    empty = SingularCensus(components=[], orbits=[], orbit=[])
    cert = Pi1Certificate("PASS", {}, True)
    res = resolved_betti(table, empty, cert)
    assert res.b2_resolved == 3


def test_resolved_betti_refuses_failed_certificate(group_a):
    table = orbifold_betti(group_a)
    census = singular_census(group_a)
    cert = Pi1Certificate("FAIL", {}, False)
    with pytest.raises(ValueError, match="not certified"):
        resolved_betti(table, census, cert)


def induced_traces(perm, signs, degrees):
    """Trace of induced_action in each degree, from the signed permutation's matrix."""
    n = len(perm)
    linear = [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    out = []
    for k in degrees:
        rho = induced_action(linear, k)
        out.append(sum(rho[i][i] for i in range(len(rho))))
    return out


def test_exterior_traces_equal_induced_action_traces():
    """Every signed permutation with n <= 4, in every degree up to n + 2 (the
    degrees above n have no forms and trace 0), and 200 seeded ones with n = 5."""
    cases = [(perm, signs) for n in range(1, 5)
             for perm in itertools.permutations(range(n))
             for signs in itertools.product((1, -1), repeat=n)]
    rng = random.Random(12)
    for _ in range(200):
        perm = tuple(rng.sample(range(5), 5))
        cases.append((perm, tuple(rng.choice((1, -1)) for _ in range(5))))
    for perm, signs in cases:
        n = len(perm)
        traces = exterior_traces(perm, signs)
        assert len(traces) == n + 1
        assert traces + [0, 0] == induced_traces(perm, signs, range(n + 3))


def test_burnside_builds_no_induced_action(monkeypatch):
    tau = diagonal([1] * 5, [Fraction(1, 4), 0, 0, 0, 0])
    alpha = AffineIsometry(((0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, -1, 0, 0), (0, 0, 0, 1, 0),
                            (0, 0, 0, 0, -1)), (0, 0, Fraction(1, 2), 0, 0))
    group = generate_group([alpha, tau], ["alpha", "tau"])
    expected = [Fraction(sum(induced_traces(el.perm, el.signs, [k])[0] for el in group.elements),
                         group.order) for k in range(8)]

    def refuse(*_args):
        raise AssertionError("burnside_dimensions built an induced-action matrix")

    monkeypatch.setattr(forms, "induced_action", refuse)
    assert burnside_dimensions(group) + [0, 0] == expected
