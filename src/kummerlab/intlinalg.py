"""Exact integer linear algebra: Smith normal form, Hermite form, kernels.

All routines work on plain Python ints (arbitrary precision), on matrices
represented as lists of row lists.  Nothing here ever touches floating
point; that is the whole point.
"""

from __future__ import annotations

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (d, u, v) with u*a*v = d, u and v unimodular.

    d is diagonal with nonnegative entries satisfying d[0] | d[1] | ... .
    """
    m, n = len(a), len(a[0])
    d = [row[:] for row in a]
    u = identity_matrix(m)
    v = identity_matrix(n)

    def row_sub(i: int, j: int, q: int) -> None:
        if q:
            d[i] = [x - q * y for x, y in zip(d[i], d[j])]
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i: int, j: int, q: int) -> None:
        if q:
            for row in d:
                row[i] -= q * row[j]
            for row in v:
                row[i] -= q * row[j]

    def row_swap(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def smallest_pivot(s: int) -> tuple[int, int] | None:
        best = None
        best_abs = None
        for i in range(s, m):
            for j in range(s, n):
                val = abs(d[i][j])
                if val and (best_abs is None or val < best_abs):
                    best, best_abs = (i, j), val
        return best

    s = 0
    while s < min(m, n):
        pos = smallest_pivot(s)
        if pos is None:
            break
        row_swap(s, pos[0])
        col_swap(s, pos[1])
        while True:
            # Euclidean reduction of the cross through (s, s).
            dirty = False
            for i in range(s + 1, m):
                if d[i][s]:
                    q = d[i][s] // d[s][s]
                    row_sub(i, s, q)
                    if d[i][s]:
                        row_swap(s, i)
                        dirty = True
            for j in range(s + 1, n):
                if d[s][j]:
                    q = d[s][j] // d[s][s]
                    col_sub(j, s, q)
                    if d[s][j]:
                        col_swap(s, j)
                        dirty = True
            if dirty:
                continue
            # Divisibility fix-up for the remaining block.
            offender = None
            for i in range(s + 1, m):
                for j in range(s + 1, n):
                    if d[i][j] % d[s][s]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            d[s] = [x + y for x, y in zip(d[s], d[offender])]
            u[s] = [x + y for x, y in zip(u[s], u[offender])]
        if d[s][s] < 0:
            d[s] = [-x for x in d[s]]
            u[s] = [-x for x in u[s]]
        s += 1
    return d, u, v


def kernel_basis(a: IntMatrix) -> list[list[int]]:
    """Basis of the saturated integer kernel {x in Z^n : a x = 0}.

    The returned vectors are columns of a unimodular matrix, hence a basis
    of the full lattice ker(a) ∩ Z^n, not a finite-index sublattice.
    """
    n = len(a[0])
    d, _u, v = smith_normal_form(a)
    basis = []
    for j in range(n):
        dj = d[j][j] if j < len(d) and j < len(d[j]) else 0
        if dj == 0:
            basis.append([v[i][j] for i in range(n)])
    return basis


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix (integer entries)."""
    from fractions import Fraction

    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [[aug[i][n + j] for j in range(n)] for i in range(n)]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def hermite_row_basis(rows: list[list[int]]) -> list[list[int]]:
    """Canonical (row-style Hermite) basis of the lattice spanned by rows.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    The result depends only on the row lattice, so it is usable as a
    dictionary key for lattice equality.
    """
    work = [row[:] for row in rows if any(row)]
    if not work:
        return []
    n = len(work[0])
    result: list[list[int]] = []
    col = 0
    while work and col < n:
        live = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not live:
            col += 1
            continue
        # Euclid on the leading column until a single row survives.
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            new_live = [base]
            for r in live[1:]:
                q = r[col] // base[col]
                reduced = [x - q * y for x, y in zip(r, base)]
                if reduced[col] != 0:
                    new_live.append(reduced)
                elif any(reduced):
                    rest.append(reduced)
            live = new_live
        pivot_row = live[0]
        if pivot_row[col] < 0:
            pivot_row = [-x for x in pivot_row]
        result.append(pivot_row)
        work = rest
        col += 1
    # Reduce entries above each pivot.
    for k in range(len(result)):
        pivot_col = next(j for j, x in enumerate(result[k]) if x != 0)
        p = result[k][pivot_col]
        for i in range(k):
            q = result[i][pivot_col] // p
            if q:
                result[i] = [x - q * y for x, y in zip(result[i], result[k])]
    return result
