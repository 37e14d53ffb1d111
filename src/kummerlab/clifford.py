"""Signed basis monomials of the Clifford algebra Cl(n) and spin lifts.

Convention: e_i * e_i = -1 (negative-definite quadratic form).  Pairwise
commutator signs of monomials do not depend on this choice; squares do,
so operations that report squares accept a ``square_convention`` flag.
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


@dataclass(frozen=True)
class SpinLiftPair:
    """The two unit lifts of a diagonal special-orthogonal sign matrix."""

    base_signs: tuple[int, ...]
    lift: CliffordMonomial

    @property
    def lifts(self) -> tuple[CliffordMonomial, CliffordMonomial]:
        return (self.lift, self.lift.negate())


def _diagonal_signs(matrix) -> tuple[int, ...]:
    rows = [tuple(row) for row in matrix]
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j, v in enumerate(row):
            if i == j:
                if v not in (1, -1):
                    raise ValueError("diagonal entries must be +1 or -1")
            elif v != 0:
                raise ValueError("matrix must be diagonal")
    return tuple(rows[i][i] for i in range(n))


def lift_diagonal(matrix) -> SpinLiftPair:
    """Lift of diag(signs) through the double cover: ± product of e_i over
    the negated axes.  Requires an even count of -1 entries (determinant +1)."""
    signs = _diagonal_signs(matrix)
    neg = tuple(i + 1 for i, s in enumerate(signs) if s < 0)
    if len(neg) % 2:
        raise ValueError("odd number of -1 entries: determinant -1, no spin lift")
    return SpinLiftPair(signs, CliffordMonomial(len(signs), neg))


@dataclass
class ObstructionReport:
    """Lifting obstruction for a commuting family of diagonal involutions.

    For an elementary abelian 2-group the lifted family generates a
    homomorphic section iff all pairwise commutator signs and all lift
    squares are +1; both are independent of the ± choice of each lift.
    """

    lifts: list[SpinLiftPair]
    commutator_signs: list[list[int]]
    squares: list[int]
    square_convention: int
    verdict: str
    witness: tuple[int, int] | None

    @property
    def obstructed(self) -> bool:
        return self.verdict == "OBSTRUCTED"


def spin_obstruction(generators, square_sign: int = -1) -> ObstructionReport:
    """Commutator/square table for the spin lifts of diagonal involutions.

    Verdict is OBSTRUCTED as soon as one pair of lifts anticommutes or one
    lift squares to -1; the witness names the offending pair (i, j), or
    (i, i) for a bad square.
    """
    pairs = [lift_diagonal(m) for m in generators]
    k = len(pairs)
    comm = [[1] * k for _ in range(k)]
    witness = None
    for i in range(k):
        for j in range(i + 1, k):
            s = commutator_sign(pairs[i].lift, pairs[j].lift)
            comm[i][j] = comm[j][i] = s
            if s < 0 and witness is None:
                witness = (i, j)
    squares = [monomial_square_sign(p.lift, square_sign=square_sign) for p in pairs]
    if witness is None:
        for i, s in enumerate(squares):
            if s < 0:
                witness = (i, i)
                break
    verdict = "OBSTRUCTED" if witness is not None else "LIFTABLE"
    return ObstructionReport(pairs, comm, squares, square_sign, verdict, witness)
