"""Signed basis monomials of the Clifford algebra Cl(n) and spin lifts.

Convention: e_i * e_i = -1 (negative-definite quadratic form).  Pairwise
commutator signs of monomials do not depend on this choice; squares do,
so operations that report squares accept a ``square_sign`` argument.
A linear part is read as its signed-permutation code (perm, signs).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CliffordMonomial:
    """sign * e_{i1} ... e_{ik} with i1 < ... < ik, indices from 1..n."""

    n: int
    indices: tuple[int, ...]
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("indices must be strictly increasing")
        if self.indices and not (1 <= self.indices[0] and self.indices[-1] <= self.n):
            raise ValueError("indices out of range")

    def negate(self) -> "CliffordMonomial":
        return CliffordMonomial(self.n, self.indices, -self.sign)

    def __str__(self):
        body = "·".join(f"e{i}" for i in self.indices) or "1"
        return ("-" if self.sign < 0 else "") + body


def clifford_mul(
    a: CliffordMonomial, b: CliffordMonomial, square_sign: int = -1
) -> CliffordMonomial:
    """Normal-form product of two basis monomials.

    The result's index set is the symmetric difference; the sign picks up
    one factor -1 per transposition needed to interleave b into a and one
    factor ``square_sign`` per index collision (e_i * e_i).
    """
    if a.n != b.n:
        raise ValueError("monomials live in different Clifford algebras")
    sign = a.sign * b.sign
    acc = list(a.indices)
    for idx in b.indices:
        # Move e_idx left past every strictly larger index in acc.
        larger = sum(1 for x in acc if x > idx)
        sign *= (-1) ** larger
        if idx in acc:
            acc.remove(idx)
            sign *= square_sign
        else:
            acc.append(idx)
            acc.sort()
    return CliffordMonomial(a.n, tuple(acc), sign)


def commutator_sign(a: CliffordMonomial, b: CliffordMonomial) -> int:
    """+1 when a and b commute, -1 when they anticommute."""
    ab = clifford_mul(a, b)
    ba = clifford_mul(b, a)
    if ab.indices != ba.indices:
        raise AssertionError("monomial products disagree beyond sign")
    return ab.sign * ba.sign


def monomial_square_sign(a: CliffordMonomial, square_sign: int = -1) -> int:
    sq = clifford_mul(a, a, square_sign=square_sign)
    if sq.indices != ():
        raise AssertionError("square of a monomial must be a scalar")
    return sq.sign


def lift_diagonal(perm, signs) -> CliffordMonomial:
    """Lift of the diagonal sign matrix with code (perm, signs) through the
    double cover: e_I, I the negated axes; the other lift is e_I.negate().
    Requires the identity perm (any other leaves a 0 on the diagonal) and
    an even count of -1 signs (determinant +1)."""
    if any(p != i for i, p in enumerate(perm)):
        raise ValueError("diagonal entries must be +1 or -1")
    neg = tuple(i + 1 for i, s in enumerate(signs) if s < 0)
    if len(neg) % 2:
        raise ValueError("odd number of -1 entries: determinant -1, no spin lift")
    return CliffordMonomial(len(signs), neg)


@dataclass
class ObstructionReport:
    """Lifting obstruction for a commuting family of diagonal involutions.

    For an elementary abelian 2-group the lifted family generates a
    homomorphic section iff all pairwise commutator signs and all lift
    squares are +1; both are independent of the ± choice of each lift.
    """

    lifts: list[CliffordMonomial]
    commutator_signs: list[list[int]]
    squares: list[int]
    square_sign: int
    verdict: str
    witness: tuple[int, int] | None


def spin_obstruction(generators, square_sign: int = -1) -> ObstructionReport:
    """Commutator/square table for the spin lifts of diagonal involutions,
    each given as its code (perm, signs).

    Verdict is OBSTRUCTED as soon as one pair of lifts anticommutes or one
    lift squares to -1; the witness names the offending pair (i, j), or
    (i, i) for a bad square.
    """
    lifts = [lift_diagonal(perm, signs) for perm, signs in generators]
    k = len(lifts)
    comm = [[1] * k for _ in range(k)]
    witness = None
    for i in range(k):
        for j in range(i + 1, k):
            s = commutator_sign(lifts[i], lifts[j])
            comm[i][j] = comm[j][i] = s
            if s < 0 and witness is None:
                witness = (i, j)
    squares = [monomial_square_sign(lift, square_sign=square_sign) for lift in lifts]
    if witness is None:
        for i, s in enumerate(squares):
            if s < 0:
                witness = (i, i)
                break
    verdict = "OBSTRUCTED" if witness is not None else "LIFTABLE"
    return ObstructionReport(lifts, comm, squares, square_sign, verdict, witness)
