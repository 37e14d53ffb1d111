import itertools

import pytest

from conftest import all_monomials, naive_clifford_product, scalar_one
from kummerlab.clifford import (
    CliffordMonomial,
    clifford_mul,
    commutator_sign,
    lift_diagonal,
    monomial_square_sign,
    spin_obstruction,
)

ID5 = (0, 1, 2, 3, 4)
# Generator codes (perm, signs): row i holds signs[i] in column perm[i].
M_ALPHA = (ID5, (1, -1, -1, -1, -1))
M_BETA = (ID5, (-1, -1, -1, 1, -1))


def test_displayed_anticommutation():
    a = CliffordMonomial(5, (2, 3, 4, 5))
    b = CliffordMonomial(5, (1, 2, 3, 5))
    ab = clifford_mul(a, b)
    ba = clifford_mul(b, a)
    assert ab.indices == ba.indices
    assert ab.sign == -ba.sign


def test_generator_square_is_minus_one():
    e1 = CliffordMonomial(5, (1,))
    sq = clifford_mul(e1, e1)
    assert sq.indices == () and sq.sign == -1


def test_products_match_naive_bubbling_oracle_n4():
    monos = list(all_monomials(4))
    for a in monos:
        for b in monos:
            got = clifford_mul(a, b)
            want_idx, want_sign = naive_clifford_product(a.indices, b.indices)
            assert (got.indices, got.sign) == (want_idx, want_sign)


def test_associativity_exhaustive_n4():
    monos = list(all_monomials(4))
    for a, b, c in itertools.product(monos, repeat=3):
        left = clifford_mul(clifford_mul(a, b), c)
        right = clifford_mul(a, clifford_mul(b, c))
        assert left == right


def test_identity_monomial_is_neutral():
    one = scalar_one(4)
    for m in all_monomials(4):
        assert clifford_mul(one, m) == m
        assert clifford_mul(m, one) == m


def test_commutator_sign_formula_n5():
    # Derived law: monomials with index sets S, T commute up to
    # (-1)^(|S||T| - |S cap T|); validated against the product itself.
    for a in all_monomials(5):
        for b in all_monomials(5):
            s, t = set(a.indices), set(b.indices)
            formula = (-1) ** (len(s) * len(t) - len(s & t))
            assert commutator_sign(a, b) == formula


def test_commutator_signs_independent_of_lift_choice():
    codes = [M_ALPHA, M_BETA, (ID5, (-1, 1, -1, -1, -1))]
    lifts = [lift_diagonal(*c) for c in codes]
    base = [
        [commutator_sign(a, b) for b in lifts] for a in lifts
    ]
    for signs in itertools.product((1, -1), repeat=3):
        flipped = [l if s > 0 else l.negate() for l, s in zip(lifts, signs)]
        table = [[commutator_sign(a, b) for b in flipped] for a in flipped]
        assert table == base


def test_lift_diagonal_examples():
    lift = lift_diagonal(*M_ALPHA)
    assert lift == CliffordMonomial(5, (2, 3, 4, 5))
    assert lift.negate() == CliffordMonomial(5, (2, 3, 4, 5), -1)
    assert lift_diagonal((0, 1), (1, 1)).indices == ()
    with pytest.raises(ValueError, match="odd"):
        lift_diagonal(ID5, (-1, 1, 1, 1, 1))
    # A permuted axis leaves a 0 on the diagonal: the swap, and the quarter
    # turn in (x2, x3) whose signs alone would lift.
    with pytest.raises(ValueError, match="diagonal entries must be"):
        lift_diagonal((1, 0), (1, 1))
    with pytest.raises(ValueError, match="diagonal entries must be"):
        lift_diagonal((0, 2, 1, 3, 4), (1, -1, 1, -1, -1))


def test_spin_obstruction_displayed_pair():
    rep = spin_obstruction([M_ALPHA, M_BETA])
    assert rep.verdict == "OBSTRUCTED"
    assert rep.witness == (0, 1)
    assert rep.commutator_signs[0][1] == -1


def test_spin_obstruction_single_generator_square_via_oracle():
    m = (ID5, (-1, -1, -1, -1, 1))
    lift = lift_diagonal(*m)
    assert lift.indices == (1, 2, 3, 4)
    _, oracle_sign = naive_clifford_product(lift.indices, lift.indices)
    assert monomial_square_sign(lift) == oracle_sign == 1
    rep = spin_obstruction([m])
    assert rep.verdict == "LIFTABLE"
    assert rep.squares == [1]


def test_spin_obstruction_empty_family():
    assert spin_obstruction([]).verdict == "LIFTABLE"


def test_square_convention_flag():
    """No convention flag is needed: on every even-grade monomial of Cl(5),
    the only kind a spin lift is, the naive oracle gives the same square
    and the same commutator signs under e_i^2 = -1 and e_i^2 = +1, and
    they are the ones the module computes."""
    even = [m for m in all_monomials(5) if len(m.indices) % 2 == 0]
    for a in even:
        squares = {naive_clifford_product(a.indices, a.indices, square_sign=s)[1] for s in (-1, 1)}
        assert squares == {monomial_square_sign(a)}
        for b in even:
            signs = set()
            for s in (-1, 1):
                ab = naive_clifford_product(a.indices, b.indices, square_sign=s)
                ba = naive_clifford_product(b.indices, a.indices, square_sign=s)
                signs.add(ab[1] * ba[1])
            assert signs == {commutator_sign(a, b)}
