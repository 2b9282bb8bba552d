"""Small exact integer and rational matrix helpers (row-major)."""

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


def gauss_jordan(m, ncols):
    """Reduce the rows of m (lists of Fractions) in place to reduced row
    echelon form in their first ncols columns; the columns after those are
    carried along.  Returns the pivot columns: row i has its pivot at the
    i-th, and the rows after the last pivot vanish in the first ncols."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def mat_inv_int(a):
    """Inverse of an integer matrix with determinant +-1 (exact, via Fractions);
    ValueError for any other matrix."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    if len(gauss_jordan(m, n)) < n:
        raise ValueError("matrix is singular")
    inv = tuple(tuple(int(x) for x in row[n:]) for row in m)
    if any(x != y for row, irow in zip(m, inv) for x, y in zip(row[n:], irow)):
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

    def det(sub):
        # Laplace expansion; k <= 4 in all uses
        n = len(sub)
        if n == 1:
            return sub[0][0]
        total = 0
        for j in range(n):
            sign = -1 if j % 2 else 1
            rest = [row[:j] + row[j + 1:] for row in sub[1:]]
            total += sign * sub[0][j] * det(rest)
        return total

    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, det([[a[i][j] for j in cs] for i in rs]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)
