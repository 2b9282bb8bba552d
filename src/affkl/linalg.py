"""Exact linear algebra over GF(p) and Q.

The solvers call one sparse API: `kernel`, `rank` and `solve` take rows as
{column: value} dicts over a field object and return field elements (ints
over GF(p), Fractions over Q).  `kernel` is the only place that picks a
backend per field:
  * GF(p): numpy `kernel_mod_p` on an int64 matrix; at p = 2 rows are packed
    into bits and eliminated by XOR, odd p runs a row loop on int64 arrays;
  * Q: multi-modular reconstruction (`kernel_rational`, on rows with
    denominators cleared in int arithmetic): residue matrices come from one
    sparse copy of the rows, and each reconstructed kernel vector is cleared
    to ints and checked exactly, in int arithmetic on the sparse rows,
    before it is returned as Fractions.
`rank` and `solve` are read off `kernel`: the rank is ncols minus the kernel
dimension, and a solution of A x = b is the kernel vector of [A | -b] at the
extra column, scaled to 1 there.  Every answer is read off the reduced row
echelon form, so it depends only on the row space: neither row order nor
duplicate rows change it, and the solution has its free columns set to zero.

The dense backends stay public.  Generic elimination over a field object
(`rref_field`, `kernel_field`, `SpanSolver`) also serves the small
finite-dimensional algebras, and fraction-free elimination (`poly_rank`,
`poly_kernel`) works over a polynomial ring.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import SolverError
from .fields import Rationals

# the ten smallest primes from 2^29 - 3 up; (p - 1)^2 fits in int64
_MODULAR_PRIMES = (536870909, 536870923, 536870951, 536871001, 536871017,
                   536871019, 536871029, 536871061, 536871089, 536871091)


# -- the sparse API ----------------------------------------------------------


def kernel(rows, ncols, field):
    """Kernel basis of a sparse system, one vector per free column.

    Over GF(p) each vector is RREF-normalized (1 at its free column); over Q
    it is scaled to integer entries with no common denominator.
    """
    rows = [row for row in rows if row]
    if not rows:
        return [[field.one if j == i else field.zero for j in range(ncols)]
                for i in range(ncols)]
    if field.char:
        return [v.tolist()
                for v in kernel_mod_p(_int64_matrix(rows, ncols), field.char)]
    return kernel_rational([_integral_row(row, ncols) for row in rows])


def rank(rows, ncols, field):
    """Rank of a sparse system."""
    return ncols - len(kernel(rows, ncols, field))


def solve(rows, rhs, ncols, field):
    """One solution of rows * x = rhs (one rhs value per row), or None.

    Free columns are set to zero.
    """
    aug = [row if field.is_zero(b) else {**row, ncols: field.neg(b)}
           for row, b in zip(rows, rhs)]
    for v in kernel(aug, ncols + 1, field):
        if not field.is_zero(v[ncols]):
            scale = field.inv(v[ncols])
            return [field.mul(x, scale) for x in v[:ncols]]
    return None


def _int64_matrix(rows, ncols):
    a = np.zeros((len(rows), ncols), dtype=np.int64)
    a[[r for r, row in enumerate(rows) for _ in row],
      [c for row in rows for c in row]] = [v for row in rows
                                           for v in row.values()]
    return a


def _integral_row(row, ncols):
    """Dense integer multiple of a rational row."""
    lcm = math.lcm(*(val.denominator for val in row.values()))
    vec = [0] * ncols
    for c, val in row.items():
        vec[c] = val.numerator * (lcm // val.denominator)
    return vec


# -- GF(p), numpy ------------------------------------------------------------


def rref_mod_p(a, p):
    """Reduced row echelon form of a mod p; returns (pivot rows, pivot columns).

    The input is not modified.  The pivot rows come back as an int64 array of
    shape (rank, ncols) with entries in [0, p).
    """
    if p == 2:
        return _rref_gf2(a)
    return _rref_dense(a, p)


def _rref_dense(a, p):
    """Row loop on a copy of a as int64, for any prime p."""
    a = np.mod(a, p).astype(np.int64)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        below = np.nonzero(a[r + 1:, c])[0]
        if below.size:
            rows = below + r + 1
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        pivots.append(c)
        r += 1
    # back substitution on the pivot rows only
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        above = np.nonzero(a[:k, c])[0]
        if above.size:
            a[above] = (a[above] - np.outer(a[above, c], a[k])) % p
    return a[:len(pivots)], pivots


def _rref_gf2(a):
    """GF(2) elimination on rows packed into Python ints (bit c = column c).

    The RREF depends only on the row space, so zero and duplicate rows are
    dropped first.  Rows are inserted sparsest first into a table keyed by
    their lowest set bit (the pivot), each reduced by XOR against the pivot
    rows already there; back substitution then runs from the highest pivot
    down.
    """
    ncols = a.shape[1]
    nbytes = (ncols + 7) // 8
    packed = np.packbits(np.mod(a, 2).astype(np.uint8), axis=1,
                         bitorder="little").tobytes()
    rows = {int.from_bytes(packed[i:i + nbytes], "little")
            for i in range(0, len(packed), nbytes)} if nbytes else set()
    rows.discard(0)
    table = {}
    for row in sorted(rows, key=lambda x: (x.bit_count(), x)):
        while row:
            low = row & -row
            other = table.get(low)
            if other is None:
                table[low] = row
                break
            row ^= other
    lows = sorted(table)
    pivmask = sum(lows)
    for low in reversed(lows):
        row = table[low]
        above = (row ^ low) & pivmask
        while above:
            bit = above & -above
            row ^= table[bit]
            above ^= bit
        table[low] = row
    out = b"".join(table[low].to_bytes(nbytes, "little") for low in lows)
    bits = np.frombuffer(out, dtype=np.uint8).reshape(len(lows), nbytes)
    red = np.unpackbits(bits, axis=1, count=ncols,
                        bitorder="little").astype(np.int64)
    return red, [low.bit_length() - 1 for low in lows]


def kernel_mod_p(a, p):
    """Canonical kernel basis (one vector per free column, RREF-normalized)."""
    if a.size == 0:
        return [_unit_vec(a.shape[1], i) for i in range(a.shape[1])]
    r, pivots = rref_mod_p(a, p)
    ncols = a.shape[1]
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = _unit_vec(ncols, f)
        v[pivots] = (-r[:, f]) % p
        basis.append(v)
    return basis


def _unit_vec(n, i):
    v = np.zeros(n, dtype=np.int64)
    v[i] = 1
    return v


def rank_mod_p(a, p):
    if a.size == 0:
        return 0
    _, pivots = rref_mod_p(a, p)
    return len(pivots)


def solve_mod_p(a, b, p):
    """One solution of a x = b mod p, or None if inconsistent."""
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    r, pivots = rref_mod_p(aug, p)
    ncols = a.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    x[pivots] = r[:, ncols]
    return x


# -- rationals ---------------------------------------------------------------


def _rational_reconstruct(r, m):
    """Unique n/d with n^2, d^2 <= m/2 and n = r d (mod m), or None."""
    bound = math.isqrt(m // 2)
    a0, a1 = m, r % m
    x0, x1 = 0, 1
    while a1 > bound:
        q = a0 // a1
        a0, a1 = a1, a0 - q * a1
        x0, x1 = x1, x0 - q * x1
    n, d = a1, x1
    if d == 0 or abs(d) > bound:
        return None
    if d < 0:
        n, d = -n, -d
    if math.gcd(abs(n), d) != 1:
        return None
    return Fraction(n, d)


def kernel_rational(rows):
    """Kernel basis over Q of an integer matrix (list of int rows).

    Multi-modular: each prime's residue matrix is built from one sparse copy
    of the rows, the RREF kernel vectors are CRT-combined and rationally
    reconstructed, cleared to integers, and every candidate is checked
    exactly against every row in int arithmetic before it is returned.  Falls
    back to Fraction elimination when reconstruction keeps failing.  Vectors
    come back as Fractions (with denominator 1).
    """
    if not rows:
        return []
    ncols = len(rows[0])
    # zero and duplicate rows do not change the row space
    sparse = list(dict.fromkeys(
        tuple([(c, int(x)) for c, x in enumerate(row) if x]) for row in rows))
    if () in sparse:
        sparse.remove(())
    row_idx = np.array([r for r, row in enumerate(sparse) for _ in row],
                       dtype=np.intp)
    col_idx = np.array([c for row in sparse for c, _ in row], dtype=np.intp)
    vals = [x for row in sparse for _, x in row]
    used = []
    best = None
    modulus = 1
    for p in _MODULAR_PRIMES:
        a = np.zeros((len(sparse), ncols), dtype=np.int64)
        a[row_idx, col_idx] = [x % p for x in vals]
        r, pivots = rref_mod_p(a, p)
        # An unlucky prime loses rank or pushes pivots to later columns, so
        # the lucky pivot list is the longest and then lexicographically
        # smallest one seen; a better prime discards the residues so far.
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best = key
            pivset = set(pivots)
            free_cols = [c for c in range(ncols) if c not in pivset]
            used = [(p, r)]
            modulus = p
        elif key == best:
            used.append((p, r))
            modulus *= p
        else:
            continue
        basis = _reconstruct_kernel(used, ncols, pivots, free_cols)
        if basis is not None and _verify_kernel(sparse, basis):
            return _as_fractions(basis)
        if modulus > 2 ** 200:
            break
    # fallback: exact Fraction elimination
    return _as_fractions(_kernel_fraction([list(map(int, row)) for row in rows]))


def _as_fractions(basis):
    zero = Fraction(0)
    return [[Fraction(x) if x else zero for x in v] for v in basis]


def _reconstruct_kernel(used, ncols, pivots, free_cols):
    """Integer kernel vectors, one per free column, from the RREFs of the
    primes in `used` (all with the same pivots), or None if some entry has
    no rational reconstruction."""
    modulus = math.prod(p for p, _ in used)
    # CRT: residue = sum of r_p * coef_p (mod modulus)
    coefs = [(modulus // p) * pow(modulus // p, -1, p) for p, _ in used]
    # row k of each list: -(pivot row k) at the free columns, mod p
    negs = [((-r[:, free_cols]) % p).tolist() for p, r in used]
    out = []
    for j, f in enumerate(free_cols):
        vec = [0] * ncols
        vec[f] = 1
        for k, c in enumerate(pivots):
            residue = sum(coef * neg[k][j]
                          for coef, neg in zip(coefs, negs)) % modulus
            if residue:
                q = _rational_reconstruct(residue, modulus)
                if q is None:
                    return None
                vec[c] = q
        out.append(_clear_denominators(vec))
    return out


def _clear_denominators(vec):
    """vec (ints and Fractions) times the lcm of its denominators, as ints."""
    lcm = math.lcm(*(q.denominator for q in vec))
    return [q.numerator * (lcm // q.denominator) for q in vec]


def _verify_kernel(sparse, basis):
    """Does every vector of basis annihilate every (column, int) row?"""
    for v in basis:
        for row in sparse:
            if sum(x * v[c] for c, x in row):
                return False
    return True


def _kernel_fraction(a_int):
    """Kernel of an integer matrix by Fraction elimination, as int vectors."""
    rows = [[Fraction(x) for x in row] for row in a_int]
    return [_clear_denominators(v)
            for v in kernel_field(rows, len(a_int[0]), Rationals())]


# -- elimination over a field object ------------------------------------------


def rref_field(rows, field):
    """RREF over a field object (GF(p) or Q); returns (rows, pivots)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if not field.is_zero(rows[i][c])),
                  None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][c]):
                fmul = rows[i][c]
                rows[i] = [field.sub(x, field.mul(fmul, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:len(pivots)], pivots


def kernel_field(rows, ncols, field):
    red, pivots = rref_field(rows, field)
    pivset = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for k, c in enumerate(pivots):
            v[c] = field.neg(red[k][f])
        out.append(v)
    return out


def solve_field(rows, rhs, field):
    """One solution of rows * x = rhs, or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref_field(aug, field)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for k, c in enumerate(pivots):
        x[c] = red[k][ncols]
    return x


class SpanSolver:
    """Express vectors in the span of a fixed family (over a field)."""

    def __init__(self, vectors, field):
        self.field = field
        self.n = len(vectors[0]) if vectors else 0
        aug = [list(v) + [field.one if i == j else field.zero
                          for j in range(len(vectors))]
               for i, v in enumerate(vectors)]
        self.red, self.pivots = rref_field(aug, field)
        self.nvecs = len(vectors)
        if any(c >= self.n for c in self.pivots):
            raise SolverError("family is linearly dependent")

    def coords(self, vec):
        """Coefficients expressing vec, or None if outside the span."""
        fld = self.field
        work = list(vec) + [fld.zero] * self.nvecs
        for k, c in enumerate(self.pivots):
            if not fld.is_zero(work[c]):
                fmul = work[c]
                work = [fld.sub(x, fld.mul(fmul, y))
                        for x, y in zip(work, self.red[k])]
        if any(not fld.is_zero(x) for x in work[:self.n]):
            return None
        return [fld.neg(x) for x in work[self.n:]]


# -- fraction-free elimination over a polynomial ring -------------------------


def poly_rank(rows, ring):
    """Rank of a matrix of polynomials (entries over an integral domain)."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = ring.one
    for c in range(ncols):
        pr = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        piv = m[rank][c]
        for i in range(rank + 1, len(m)):
            row = m[i]
            if not any(row[c2] for c2 in range(c, ncols)):
                continue
            for j in range(ncols):
                if j == c:
                    continue
                num = ring.sub(ring.mul(piv, row[j]), ring.mul(row[c], m[rank][j]))
                row[j] = ring.exact_div(num, prev) if num else {}
            row[c] = {}
        prev = piv
        rank += 1
    return rank


def poly_kernel(rows, ncols, ring):
    """Kernel basis over Frac(R) of a small polynomial matrix, cleared to R."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                # row_i <- piv * row_i - row_i[c] * row_r  (no division: sizes tiny)
                piv = m[r][c]
                f = m[i][c]
                m[i] = [ring.sub(ring.mul(piv, m[i][j]), ring.mul(f, m[r][j]))
                        for j in range(ncols)]
        pivots.append(c)
        r += 1
    pivset = set(pivots)
    out = []
    for fcol in range(ncols):
        if fcol in pivset:
            continue
        # x_f = prod of pivots; x_{pivot c} = -(row coefficient scaled)
        num = {}
        den = {}
        x = [ring.zero for _ in range(ncols)]
        piv_prod = ring.one
        for k, c in enumerate(pivots):
            piv_prod = ring.mul(piv_prod, m[k][c])
        x[fcol] = piv_prod
        for k, c in enumerate(pivots):
            # m[k][c] * x_c + m[k][fcol] * x_f = 0 (rows are fully reduced)
            val = ring.mul(m[k][fcol], x[fcol])
            x[c] = ring.neg(ring.exact_div(val, m[k][c])) if val else {}
        out.append(x)
    return out
