"""Induced group action on constant k-forms of the torus, exactly.

A signed permutation isometry pulls a basis monomial dx_I back to a
signed basis monomial; the invariant subspace under a finite group is an
integer kernel computation, and the Betti numbers of the quotient are
the invariant dimensions degree by degree.  The resolved Betti numbers
add one 2-class per grafted singular circle orbit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .intlinalg import hermite_row_basis, kernel_basis
from .torus import GroupTable, Pi1Certificate, SingularCensus, _signed_permutation

MultiIndex = tuple[int, ...]


def form_basis(n: int, k: int) -> list[MultiIndex]:
    """Strictly increasing k-subsets of {1..n}, in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), k))


def induced_action(linear, k: int) -> list[list[int]]:
    """Matrix of the pullback action on degree-k basis monomials.

    For a signed permutation sending axis i to sign s_i times axis p(i),
    dx_I maps to (prod of s_i) * (parity of sorting p(I)) * dx_{sorted p(I)}.
    """
    image, sign_of = _signed_permutation(linear)
    basis = form_basis(len(image), k)
    index = {b: i for i, b in enumerate(basis)}
    mat = [[0] * len(basis) for _ in range(len(basis))]
    for col, subset in enumerate(basis):
        mapped = [image[i - 1] + 1 for i in subset]
        sign = 1
        for i in subset:
            sign *= sign_of[i - 1]
        # Parity of the permutation sorting the mapped tuple.
        perm = sorted(range(len(mapped)), key=lambda t: mapped[t])
        inversions = sum(
            1
            for a in range(len(perm))
            for b in range(a + 1, len(perm))
            if perm[a] > perm[b]
        )
        sign *= (-1) ** inversions
        target = tuple(sorted(mapped))
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

    A form fixed by the generators is fixed by the group, so this is one
    integer kernel: stack rho(g) - I over the distinct generator elements
    and take the saturated kernel.  Its basis is returned in Hermite form,
    which depends only on the kernel lattice, not on the stack.
    """
    n = group.dim
    basis = form_basis(n, k)
    size = len(basis)
    stacked: list[list[int]] = []
    for g in group.generator_indices:
        rho = induced_action(group.elements[g].linear, k)
        for r in range(size):
            row = [rho[r][c] - (1 if r == c else 0) for c in range(size)]
            if any(row):
                stacked.append(row)
    if not stacked:
        vectors = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    else:
        vectors = hermite_row_basis(kernel_basis(stacked))
    return InvariantSubspace(k, len(vectors), vectors, basis)


def burnside_dimension(group: GroupTable, k: int) -> Fraction:
    """Average of the induced-action traces; must equal the fixed dimension.

    The sum runs over every element; a trace depends only on the linear
    part, so each distinct linear part's trace is computed once.
    """
    traces: dict = {}
    tot = 0
    for el in group.elements:
        if el.linear not in traces:
            rho = induced_action(el.linear, k)
            traces[el.linear] = sum(rho[i][i] for i in range(len(rho)))
        tot += traces[el.linear]
    return Fraction(tot, group.order)


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
