"""Induced group action on constant k-forms of the torus, exactly.

A signed permutation isometry pulls a basis monomial dx_I back to a
signed basis monomial, so the group permutes the monomials up to sign.
The invariant forms are the signed orbit sums of that action: one per
orbit on which the signs agree, none where some element sends a
monomial to its own negative.  The Betti numbers of the quotient are the
invariant dimensions degree by degree.  The resolved Betti numbers add
one 2-class per grafted singular circle orbit.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .torus import GroupTable, Pi1Certificate, SingularCensus, _signed_permutation

MultiIndex = tuple[int, ...]


def form_basis(n: int, k: int) -> list[MultiIndex]:
    """Strictly increasing k-subsets of {1..n}, in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), k))


def _monomial_image(perm, signs, subset: MultiIndex) -> tuple[int, MultiIndex]:
    """(sign, target) with dx_subset pulled back to sign * dx_target by the
    signed permutation sending axis i to signs[i] times axis perm[i] (0-based):
    the product of the signs times the parity of sorting the mapped axes."""
    mapped = [perm[i - 1] + 1 for i in subset]
    sign = 1
    for a, i in enumerate(subset):
        sign *= signs[i - 1]
        for j in mapped[a + 1 :]:
            if mapped[a] > j:
                sign = -sign
    return sign, tuple(sorted(mapped))


def induced_action(linear, k: int) -> list[list[int]]:
    """Matrix of the pullback action on degree-k basis monomials."""
    image, sign_of = _signed_permutation(linear)
    basis = form_basis(len(image), k)
    index = {b: i for i, b in enumerate(basis)}
    mat = [[0] * len(basis) for _ in range(len(basis))]
    for col, subset in enumerate(basis):
        sign, target = _monomial_image(image, sign_of, subset)
        mat[index[target]][col] = sign
    return mat


@dataclass
class InvariantSubspace:
    k: int
    dimension: int
    basis: list[list[int]]  # integer coefficient vectors over form_basis(n, k)
    form_basis: list[MultiIndex]

    def basis_strings(self) -> list[str]:
        return [form_to_string(vec, self.form_basis) for vec in self.basis]


def form_to_string(coeffs, basis: list[MultiIndex]) -> str:
    terms = []
    for c, subset in zip(coeffs, basis):
        if c == 0:
            continue
        body = "∧".join(f"dx{i}" for i in subset) if subset else "1"
        if c == 1:
            term = body
        elif c == -1:
            term = f"-{body}"
        else:
            term = f"{c}{body}"
        terms.append(term)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" + {t}" if not t.startswith("-") else f" - {t[1:]}"
    return out


def invariant_forms(group: GroupTable, k: int) -> InvariantSubspace:
    """Simultaneous fixed subspace of the induced actions of all elements.

    A form fixed by the generators is fixed by the group.  Each orbit of the
    generators on the basis monomials is walked from its least monomial with
    coefficient +1; its signed sum is invariant unless some monomial is reached
    with both signs, and then no form on the orbit is.  The sums have disjoint
    supports and leading entries +1: the saturated lattice's Hermite basis.
    """
    basis = form_basis(group.dim, k)
    index = {b: i for i, b in enumerate(basis)}
    moves = []
    for g in group.generator_indices:
        el = group.elements[g]
        moves.append([(index[t], s) for s, t in (_monomial_image(el.perm, el.signs, b) for b in basis)])
    coeff = [0] * len(basis)
    vectors = []
    for start in range(len(basis)):
        if coeff[start]:
            continue
        coeff[start], orbit, consistent = 1, [start], True
        for c in orbit:  # grows while it is walked
            for move in moves:
                t, s = move[c]
                if not coeff[t]:
                    coeff[t] = s * coeff[c]
                    orbit.append(t)
                elif coeff[t] != s * coeff[c]:
                    consistent = False
        if consistent:
            members = set(orbit)
            vectors.append([coeff[c] if c in members else 0 for c in range(len(basis))])
    return InvariantSubspace(k, len(vectors), vectors, basis)


def exterior_traces(perm, signs) -> list[int]:
    """Traces of the induced action in degrees 0..n of the signed permutation
    (perm, signs): the coefficients of det(I + tA), the product over the
    cycles of (1 - e·(-t)^L), L being the cycle's length and e its sign
    product (the cycle's block B has B^L = e·I, so det(xI - B) = x^L - e)."""
    n = len(perm)
    poly, seen = [1], [False] * n
    for start in range(n):
        length, e, c = 0, 1, start
        while not seen[c]:
            seen[c] = True
            e *= signs[c]
            c = perm[c]
            length += 1
        if length:  # poly *= 1 + top·t^L, in place from the top degree down
            top = -e * (-1) ** length
            poly += [0] * length
            for i in range(len(poly) - 1, length - 1, -1):
                poly[i] += top * poly[i - length]
    return poly


def burnside_dimensions(group: GroupTable) -> list[Fraction]:
    """Average induced-action trace in each degree 0..n; each must equal
    that degree's fixed dimension.

    A trace depends only on the signed permutation, so each distinct one's
    traces in every degree are read once, by exterior_traces and without an
    induced-action matrix.  Degree n averages det A, so it is 1 exactly when
    every element preserves orientation (and 0 otherwise).
    """
    totals = [0] * (group.dim + 1)
    for ps, c in Counter((el.perm, el.signs) for el in group.elements).items():
        for k, tr in enumerate(exterior_traces(*ps)):
            totals[k] += c * tr
    return [Fraction(t, group.order) for t in totals]


@dataclass
class BettiTable:
    b: list[int]  # orbifold Betti numbers, degrees 0..n
    b2_resolved: int | None = None
    b3_resolved: int | None = None
    euler: int | None = None
    invariant: list[InvariantSubspace] = field(default_factory=list, repr=False)  # by degree

    @property
    def n(self) -> int:
        return len(self.b) - 1

    def resolved_vector(self) -> list[int] | None:
        if self.b2_resolved is None:
            return None
        return [1, 0, self.b2_resolved, self.b3_resolved, 0, 1]

    def duality_holds(self) -> bool:
        return all(self.b[k] == self.b[self.n - k] for k in range(self.n + 1))


def orbifold_betti(group: GroupTable) -> BettiTable:
    spaces = [invariant_forms(group, k) for k in range(group.dim + 1)]
    return BettiTable(b=[s.dimension for s in spaces], invariant=spaces)


def resolved_betti(
    orbifold: BettiTable, census: SingularCensus, certificate: Pi1Certificate
) -> BettiTable:
    """Complete the table for the surgered manifold.

    Each singular-circle orbit is replaced by a grafted piece contributing
    exactly one new 2-class, so b2 = orbifold b2 + orbit count; b3 matches
    b2 by Poincaré duality of the closed orientable 5-manifold, and the
    odd-dimensional Euler characteristic is zero.  Refuses to fill the
    table when the simple-connectivity certificate FAILed, because the
    b1 = 0 input would then be unjustified.
    """
    if not certificate.passed:
        raise ValueError("resolved Betti not certified")
    if orbifold.n != 5:
        raise ValueError("resolution bookkeeping applies to 5-dimensional quotients only")
    if any(orb.representative.dimension != 1 for orb in census.orbits):
        raise ValueError("resolution bookkeeping requires a circles-only census")
    b2 = orbifold.b[2] + census.orbit_count
    table = BettiTable(b=list(orbifold.b), b2_resolved=b2, b3_resolved=b2)
    vec = table.resolved_vector()
    table.euler = sum((-1) ** k * v for k, v in enumerate(vec))
    return table
