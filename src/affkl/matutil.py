"""Small exact integer matrix helpers (tuples of tuples, row-major)."""

from fractions import Fraction


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def transpose(a):
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def mat_inv_int(a):
    """Inverse of an integer matrix with determinant +-1 (exact, via Fractions);
    ValueError for any other matrix."""
    n = len(a)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    inv = tuple(tuple(int(m[i][n + j]) for j in range(n)) for i in range(n))
    for i in range(n):
        for j in range(n):
            if m[i][n + j] != inv[i][j]:
                raise ValueError("matrix is not invertible over the integers")
    return inv


def smith_normal_form(a):
    """Invariant factors d_1 | d_2 | ... of an integer matrix (nonneg, zeros trimmed).

    Plain row/column reduction; fine for the small matrices used here.
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    factors = []
    top = 0
    while top < min(rows, cols):
        # find a nonzero entry of minimal absolute value in the working block
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        piv = m[top][top]
        dirty = False
        for i in range(top + 1, rows):
            q = m[i][top] // piv
            if q:
                for j in range(top, cols):
                    m[i][j] -= q * m[top][j]
            if m[i][top]:
                dirty = True
        for j in range(top + 1, cols):
            q = m[top][j] // piv
            if q:
                for i in range(top, rows):
                    m[i][j] -= q * m[i][top]
            if m[top][j]:
                dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the block for true SNF
        rem = next(
            ((i, j) for i in range(top + 1, rows) for j in range(top + 1, cols)
             if m[i][j] % piv != 0),
            None,
        )
        if rem is not None:
            i, _ = rem
            for j in range(top, cols):
                m[top][j] += m[i][j]
            continue
        factors.append(abs(piv))
        top += 1
    return tuple(f for f in factors if f != 0)


def gcd_minors_invariant_factors(a):
    """Invariant factors via gcds of k x k minors (slow oracle for tests)."""
    from itertools import combinations
    from math import gcd

    rows = len(a)
    cols = len(a[0]) if rows else 0
    factors = []
    prev = 1

    def minor(rs, cs):
        sub = [[a[i][j] for j in cs] for i in rs]
        n = len(sub)
        if n == 0:
            return 1
        # Laplace expansion; k <= 4 in all uses
        if n == 1:
            return sub[0][0]
        total = 0
        for j in range(n):
            sign = -1 if j % 2 else 1
            rest = [row[:j] + row[j + 1:] for row in sub[1:]]
            total += sign * sub[0][j] * _det(rest)
        return total

    def _det(sub):
        n = len(sub)
        if n == 1:
            return sub[0][0]
        total = 0
        for j in range(n):
            sign = -1 if j % 2 else 1
            rest = [row[:j] + row[j + 1:] for row in sub[1:]]
            total += sign * sub[0][j] * _det(rest)
        return total

    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, minor(rs, cs))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)
