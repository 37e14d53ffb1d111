import random

from conftest import lattice_adapted_basis
from kummerlab.intlinalg import (
    hermite_row_basis,
    int_det,
    kernel_basis,
    mat_mul,
    smith_normal_form,
    unimodular_inverse,
)


def random_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_smith_decomposition_properties():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        d, u, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(int_det(u)) == 1
        assert abs(int_det(v)) == 1
        diag = [d[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        assert all(x >= 0 for x in diag)
        for a1, a2 in zip(diag, diag[1:]):
            if a2 != 0:
                assert a1 != 0 and a2 % a1 == 0
            # once a zero appears, everything after stays zero
            if a1 == 0:
                assert a2 == 0


def test_kernel_basis_is_saturated_and_annihilates():
    rng = random.Random(11)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        a = random_matrix(rng, m, n, -4, 4)
        basis = kernel_basis(a)
        for vec in basis:
            assert all(sum(row[j] * vec[j] for j in range(n)) == 0 for row in a)
        if basis:
            d, _, _ = smith_normal_form([list(v) for v in zip(*basis)])
            assert all(d[i][i] == 1 for i in range(len(basis)))


def test_hermite_row_basis_canonical_on_lattice():
    rng = random.Random(13)
    for _ in range(40):
        k, n = rng.randint(1, 3), rng.randint(2, 5)
        rows = random_matrix(rng, k, n, -5, 5)
        base = hermite_row_basis(rows)
        # Shuffling and recombining rows must not change the canonical basis.
        mixed = [row[:] for row in rows]
        rng.shuffle(mixed)
        if len(mixed) >= 2:
            q = rng.randint(-3, 3)
            mixed[0] = [x + q * y for x, y in zip(mixed[0], mixed[1])]
        assert hermite_row_basis(mixed) == base
        # Pivots positive, entries above pivots reduced.
        for i, row in enumerate(base):
            pivot_col = next(j for j, x in enumerate(row) if x)
            assert row[pivot_col] > 0
            for prev in base[:i]:
                assert 0 <= prev[pivot_col] < row[pivot_col]


def test_unimodular_inverse_and_adapted_basis():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        # Random unimodular from row operations on the identity.
        u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-2, 2)
                u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        inv = unimodular_inverse(u)
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert mat_mul(u, inv) == eye
        rows = u[:k]  # saturated lattice by construction
        v0 = lattice_adapted_basis(rows)
        assert abs(int_det(v0)) == 1
        cols = [[v0[i][j] for i in range(n)] for j in range(k)]
        assert hermite_row_basis(cols) == hermite_row_basis(rows)
