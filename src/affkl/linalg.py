"""Exact linear algebra over GF(p) and Q.

The solvers call one sparse API: `kernel`, `rank` and `solve` take a system
as COO triplets `(rows, cols, vals, ncols, field)`, where entry (rows[k],
cols[k]) is the sum of every vals[k] there, and return field elements (ints
over GF(p); over Q ints, or Fractions where not integral).  Values are ints
over GF(p) and ints or Fractions over Q; the `homs` assembly hands over
integers, its equations cleared of denominators.  `kernel` sums the triplets
into a dense matrix and is the only place that picks a backend per field:
  * GF(p): `kernel_mod_p` on an int64 matrix mod p; at p = 2 rows are
    packed into bits and eliminated by XOR, at odd p they become sparse
    {column: residue} rows eliminated by insertion into a pivot table;
  * Q: multi-modular reconstruction (`kernel_rational`, on dense int rows;
    a row holding Fractions is first scaled to ints): one sparse copy of the
    rows is reduced modulo each prime into the same sparse elimination, and
    each reconstructed kernel vector is cleared to ints and checked exactly,
    in int arithmetic on the sparse rows, before it is returned (entries
    stay ints).
`rank` and `solve` are read off `kernel`: the rank is ncols minus the kernel
dimension.  `solve` takes several right-hand sides at once, as the columns
after the first ncols, and reads each solution of A x = b_k off the kernel
of [A | B]: the vector of the free column of b_k, scaled to -1 there.  If
some b_k is outside the span of A its column is a pivot, and the call
returns None.  Every answer is read off the reduced row echelon form, so it
depends only on the row space: neither row order, row scaling nor duplicate
rows change it, and each solution has its free columns set to zero.

The dense backends stay public.  Generic elimination over a field object
(`rref_field`, `kernel_field`, `SpanSolver`) also serves the small
finite-dimensional algebras, and fraction-free elimination
(`independent_rows` behind `poly_rank`, and `poly_kernel`) works over a
polynomial ring.
"""

import math
from heapq import heapify, heappop, heappush
from itertools import compress

import numpy as np

from .errors import SolverError
from .fields import Rationals

# the ten smallest primes from 2^29 - 3 up; the sparse elimination
# multiplies residues as Python ints, so no product meets int64
_MODULAR_PRIMES = (536870909, 536870923, 536870951, 536871001, 536871017,
                   536871019, 536871029, 536871061, 536871089, 536871091)


# -- the sparse API ----------------------------------------------------------


def kernel(rows, cols, vals, ncols, field):
    """Kernel basis of a sparse system, one vector per free column.

    The system is given as COO triplets: entry (rows[k], cols[k]) is the sum
    of every vals[k] there.  Over GF(p) each vector is RREF-normalized (1 at
    its free column); over Q it is scaled to integer entries with no common
    denominator.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if not len(rows):
        return [[field.one if j == i else field.zero for j in range(ncols)]
                for i in range(ncols)]
    if field.char:
        a = np.zeros((int(rows.max()) + 1, ncols), dtype=np.int64)
        np.add.at(a, (rows, np.asarray(cols, dtype=np.int64)),
                  np.asarray(vals, dtype=np.int64))
        a %= field.char
        return [v.tolist() for v in kernel_mod_p(a, field.char)]
    dense = [[0] * ncols for _ in range(int(rows.max()) + 1)]
    for r, c, x in zip(rows.tolist(), np.asarray(cols).tolist(), vals):
        dense[r][c] += x
    if any(type(x) is not int for x in vals):
        dense = [_clear_denominators(row) for row in dense]
    return kernel_rational(dense)


def rank(rows, cols, vals, ncols, field):
    """Rank of a sparse system."""
    return ncols - len(kernel(rows, cols, vals, ncols, field))


def solve(rows, cols, vals, ncols, nrhs, field):
    """Solutions of A x = b_k for every k < nrhs, or None if some b_k has
    none.  The triplets hold [A | B]: A in the columns below ncols, b_k in
    column ncols + k.  Each solution has its free columns set to zero.
    """
    basis = kernel(rows, cols, vals, ncols + nrhs, field)
    # each b_k in the span of A leaves its column free, and those columns
    # come last; if some b_k is a pivot, the tail starts with the vector of
    # a free column of A, which is zero at column ncols
    tail = basis[len(basis) - nrhs:] if nrhs else []
    if len(tail) < nrhs or any(field.is_zero(v[ncols + k])
                               for k, v in enumerate(tail)):
        return None
    out = []
    for k, v in enumerate(tail):
        scale = field.neg(field.inv(v[ncols + k]))
        out.append([field.mul(x, scale) for x in v[:ncols]])
    return out


# -- GF(p) -------------------------------------------------------------------


def rref_mod_p(a, p):
    """Reduced row echelon form of a mod p; returns (pivot rows, pivot columns).

    The input is not modified.  The pivot rows come back as an int64 array of
    shape (rank, ncols) with entries in [0, p).
    """
    if p == 2:
        return _rref_gf2(a)
    a = np.mod(a, p).astype(np.int64)
    nrows, ncols = a.shape
    nz_rows, nz_cols = np.nonzero(a)
    cols, vals = nz_cols.tolist(), a[nz_rows, nz_cols].tolist()
    ends = np.cumsum(np.bincount(nz_rows, minlength=nrows)).tolist()
    pivots, table = _rref_sparse(
        {tuple(zip(cols[s:e], vals[s:e])) for s, e in zip([0] + ends, ends)},
        p)
    red = np.zeros((len(pivots), ncols), dtype=np.int64)
    for k, c in enumerate(pivots):
        row = table[c]
        red[k, c] = 1
        red[k, list(row)] = list(row.values())
    return red, pivots


def _rref_sparse(rows, p):
    """Elimination mod an odd prime p on sparse rows, each a tuple of
    (column, residue) pairs with residues in [1, p).

    Returns (pivots, table): the ascending pivot columns, and for each pivot
    c its RREF row as {column: residue} over the free columns right of c
    (the 1 at c left out).  As in _rref_gf2, zero and duplicate rows are
    dropped, rows are inserted sparsest first into the table keyed by their
    lowest column, each reduced against the pivot rows already there, and
    back substitution runs from the highest pivot down.
    """
    rows = set(rows)
    rows.discard(())
    table = {}
    for row in sorted(rows, key=len):
        # the row's columns as a heap: reducing at column c only adds
        # columns right of c, so they are visited in increasing order
        heap = [c for c, _ in row]
        heapify(heap)
        row = dict(row)
        while heap:
            c = heappop(heap)
            f = row.pop(c, 0)
            if not f:
                continue
            other = table.get(c)
            if other is None:
                inv = pow(f, -1, p)
                table[c] = {j: x * inv % p for j, x in row.items()}
                break
            for j, x in other.items():
                y = row.get(j)
                if y is None:
                    row[j] = -f * x % p
                    heappush(heap, j)
                elif y := (y - f * x) % p:
                    row[j] = y
                else:
                    del row[j]
    pivots = sorted(table)
    for c in reversed(pivots):
        row = table[c]
        # the rows of higher pivots are reduced already, so this removes
        # every pivot column of row at once and adds none
        for j in [j for j in row if j in table]:
            f = row.pop(j)
            for k, x in table[j].items():
                if y := (row.get(k, 0) - f * x) % p:
                    row[k] = y
                else:
                    del row[k]
    return pivots, table


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
    # the parity survives the wrapping cast to uint8, which avoids an int64
    # copy of a
    packed = np.packbits(a.astype(np.uint8) & 1, axis=1,
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
    """(n, d) for the unique n/d in lowest terms with d > 0, n^2, d^2 <= m/2
    and n = r d (mod m), or None."""
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
    return n, d


def kernel_rational(rows):
    """Kernel basis over Q of an integer matrix (list of int rows).

    Multi-modular: one sparse copy of the rows is reduced modulo each prime
    straight into the sparse elimination, the RREF kernel vectors are
    CRT-combined and rationally reconstructed, cleared to integers, and every
    candidate is checked exactly against every row in int arithmetic before
    it is returned.  Falls back to Fraction elimination when reconstruction
    keeps failing.  Vectors come back with int entries, the canonical form of
    an integral rational.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    # zero and duplicate rows do not change the row space
    sparse = list(dict.fromkeys(
        tuple(zip(compress(range(ncols), row), filter(None, row)))
        for row in rows))
    if () in sparse:
        sparse.remove(())
    used = []
    best = None
    for p in _MODULAR_PRIMES:
        pivots, table = _rref_sparse(
            (tuple([(c, r) for c, x in row if (r := x % p)]) for row in sparse),
            p)
        # An unlucky prime loses rank or pushes pivots to later columns, so
        # the lucky pivot list is the longest and then lexicographically
        # smallest one seen; a better prime discards the residues so far.
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best = key
            used = [(p, table)]
        elif key == best:
            used.append((p, table))
        else:
            continue
        basis = _reconstruct_kernel(used, ncols, pivots)
        if basis is not None and _verify_kernel(sparse, basis):
            return basis
        if math.prod(q for q, _ in used) > 2 ** 200:
            break
    # fallback: exact Fraction elimination
    return _kernel_fraction([list(map(int, row)) for row in rows])


def _reconstruct_kernel(used, ncols, pivots):
    """Integer kernel vectors, one per free column, from the RREF tables of
    the primes in `used` (all with the same pivots), or None if some entry
    has no rational reconstruction."""
    modulus = math.prod(p for p, _ in used)
    # CRT: residue = sum of r_p * coef_p (mod modulus)
    coefs = [(modulus // p) * pow(modulus // p, -1, p) for p, _ in used]
    pivset = set(pivots)
    # free column f -> {pivot c: (n, d)}, the entry n/d of f's vector at c
    fracs = {f: {} for f in range(ncols) if f not in pivset}
    for c in pivots:
        rows = [table[c] for _, table in used]
        # entry (c, f) of the vector of free column f is -(pivot row c)[f]
        for f in set().union(*rows):
            residue = -sum(coef * row.get(f, 0)
                           for coef, row in zip(coefs, rows)) % modulus
            nd = _rational_reconstruct(residue, modulus)
            if nd is None:
                return None
            fracs[f][c] = nd
    out = []
    for f, col in fracs.items():
        lcm = math.lcm(*(d for _, d in col.values()))
        vec = [0] * ncols
        vec[f] = lcm
        for c, (n, d) in col.items():
            vec[c] = n * (lcm // d)
        out.append(vec)
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
    return [_clear_denominators(v)
            for v in kernel_field(a_int, len(a_int[0]), Rationals())]


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
    return len(independent_rows(rows, ring))


def independent_rows(rows, ring):
    """Greedy maximal subset of rows independent over the fraction field.

    Each row is reduced against a fraction-free (Bareiss) echelon form of
    the rows selected before it, and is selected when a nonzero entry is
    left.  After k steps its entries are (k+1)-minors of the selected rows
    and itself, so each division by the previous pivot is exact, whatever
    the order of the pivot columns."""
    selected, echelon = [], []          # echelon: (pivot column, row)
    for v in rows:
        row, prev = list(v), None
        for c, piv_row in echelon:
            if not any(row):
                break
            piv, f = piv_row[c], row[c]
            row = [{} if j == c else ring.mul_sub(piv, x, f, y)
                   for j, (x, y) in enumerate(zip(row, piv_row))]
            if prev is not None:
                row = [ring.exact_div(x, prev) if x else x for x in row]
            prev = piv
        if any(row):
            echelon.append((next(j for j, x in enumerate(row) if x), row))
            selected.append(v)
    return selected


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
                m[i] = [ring.mul_sub(piv, m[i][j], f, m[r][j])
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
