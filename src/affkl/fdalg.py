"""Finite-dimensional associative algebras: radical and primitive idempotents.

The algebra is given by structure constants over a field object.  The radical
is cut out by the characteristic-polynomial-coefficient chain: its first step
is the kernel of the trace form, which is the radical in characteristic 0;
in characteristic p the chain goes on at the coefficients of index p, p^2, ...
(the trace form alone fails when p divides dimensions).  Idempotents of the
semisimple quotient are found via the center and block splitting, both
cutting an idempotent f by the roots in the base field of the minimal
polynomial of some f z f, then lifted through the radical by Newton
iteration.  Only roots in the base field are needed: End^0/rad of an
indecomposable is split, and a simple block that is not split raises
`SplitOverExtensionNeeded`.  Linear algebra goes through the generic field
elimination of `linalg`.
"""

import random
from fractions import Fraction
from math import isqrt, lcm

from . import upoly
from .errors import SolverError, SplitOverExtensionNeeded
from .linalg import SpanSolver, kernel_field, rref_field


class FDAlgebra:
    def __init__(self, field, mul_table, unit):
        """mul_table[i][j] = coordinate vector of b_i * b_j; unit = coords of 1."""
        self.field = field
        self.dim = len(mul_table)
        self.mul_table = mul_table
        self.unit = tuple(unit)

    # -- arithmetic in coordinates ------------------------------------------

    def mul(self, x, y):
        fld = self.field
        out = [fld.zero] * self.dim
        for i, xi in enumerate(x):
            if fld.is_zero(xi):
                continue
            row = self.mul_table[i]
            for j, yj in enumerate(y):
                if fld.is_zero(yj):
                    continue
                c = fld.mul(xi, yj)
                for k, v in enumerate(row[j]):
                    if not fld.is_zero(v):
                        out[k] = fld.add(out[k], fld.mul(c, v))
        return out

    def add(self, x, y):
        return [self.field.add(a, b) for a, b in zip(x, y)]

    def sub(self, x, y):
        return [self.field.sub(a, b) for a, b in zip(x, y)]

    def smul(self, c, x):
        return [self.field.mul(c, a) for a in x]

    def is_zero_vec(self, x):
        return all(self.field.is_zero(a) for a in x)

    def left_mult_matrix(self, x):
        cols = []
        for j in range(self.dim):
            e = [self.field.zero] * self.dim
            e[j] = self.field.one
            cols.append(self.mul(x, e))
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def basis_vec(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    # -- radical ---------------------------------------------------------------

    def radical(self):
        """Basis of the Jacobson radical, by the characteristic-polynomial
        chain; in characteristic 0 its first (trace-form) step suffices."""
        space = [self.basis_vec(i) for i in range(self.dim)]
        ppow = 1
        while space and ppow <= self.dim:
            space = self._charp_step(space, ppow)
            if not self.field.char:
                break
            ppow *= self.field.char
        return space

    def _charp_step(self, space, ppow):
        """{x in span : cp-coeff at index ppow of L_{x y} = 0 for all y}."""
        fld = self.field
        if ppow == 1:
            # the coefficient at t^(dim-1) is -trace, linear in the product;
            # the trace of L_{b_k} sums the b_i-coordinates of b_k b_i
            traces = []
            for k in range(self.dim):
                tr = fld.zero
                for i in range(self.dim):
                    tr = fld.add(tr, self.mul_table[k][i][i])
                traces.append(tr)
            vals = []
            for u in space:
                row = []
                for v in space:
                    val = fld.zero
                    for c, tr in zip(self.mul(u, v), traces):
                        if not fld.is_zero(c):
                            val = fld.add(val, fld.mul(c, tr))
                    row.append(val)
                vals.append(row)
        else:
            vals = []
            for u in space:
                row = []
                for v in space:
                    prod = self.mul(u, v)
                    lm = self.left_mult_matrix(prod)
                    coeffs = _charpoly(lm, fld)
                    # chi(t) = sum coeffs[k] t^k, monic; take coefficient of
                    # t^(dim - ppow)
                    idx = self.dim - ppow
                    row.append(coeffs[idx] if 0 <= idx < len(coeffs) else fld.zero)
                vals.append(row)
        # semilinear in the first argument: over GF(p) this is linear
        kern = kernel_field(
            [[vals[i][j] for i in range(len(space))] for j in range(len(space))],
            len(space), fld)
        return [_combine(fld, coeffs, space, self.dim) for coeffs in kern]

    # -- idempotents -------------------------------------------------------------

    def complete_primitive_idempotents(self):
        """Orthogonal primitive idempotents summing to 1."""
        rad = self.radical()
        quo = _Quotient(self, rad)
        prims_bar = quo.primitive_idempotents()
        lifted = self._lift_family([quo.lift(e) for e in prims_bar])
        total = [self.field.zero] * self.dim
        for e in lifted:
            total = self.add(total, e)
        if total != list(self.unit):
            raise SolverError("lifted idempotents do not sum to 1")
        return lifted

    def _lift_family(self, reps):
        lifted = []
        s = [self.field.zero] * self.dim
        for x in reps:
            one_minus_s = self.sub(list(self.unit), s)
            x = self.mul(self.mul(one_minus_s, x), one_minus_s)
            x = self._newton_idempotent(x)
            lifted.append(x)
            s = self.add(s, x)
        return lifted

    def _newton_idempotent(self, e):
        for _ in range(64):
            e2 = self.mul(e, e)
            if e2 == e:
                return e
            three_e2 = self.smul(self.field.from_int(3), e2)
            two_e3 = self.smul(self.field.from_int(2), self.mul(e2, e))
            e = self.sub(three_e2, two_e3)
        raise SolverError("idempotent lifting did not converge")


class _Quotient:
    """The semisimple quotient, with coordinates in a complement of the radical."""

    def __init__(self, alg, rad_basis):
        self.alg = alg
        self.field = alg.field
        fld = alg.field
        n = alg.dim
        # complement basis: extend the radical to a basis of A, quotient
        # coordinates = coefficients on the complement part
        rows = [list(v) for v in rad_basis]
        red, pivots = rref_field(rows, fld) if rows else ([], [])
        pivset = set(pivots)
        comp = [i for i in range(n) if i not in pivset]
        self.comp = comp
        self.rad_red = red
        self.rad_pivots = pivots
        self.dim = len(comp)
        self.table = []
        for i in comp:
            row = []
            for j in comp:
                row.append(self.project(alg.mul_table[i][j]))
            self.table.append(row)
        self.unit = self.project(list(alg.unit))
        self.quo = FDAlgebra(fld, self.table, self.unit)

    def project(self, vec):
        """Reduce mod the radical; coordinates on the complement basis."""
        fld = self.field
        work = list(vec)
        for k, c in enumerate(self.rad_pivots):
            if not fld.is_zero(work[c]):
                f = work[c]
                work = [fld.sub(a, fld.mul(f, b))
                        for a, b in zip(work, self.rad_red[k])]
        return [work[i] for i in self.comp]

    def lift(self, qvec):
        """Any preimage in A of a quotient vector."""
        fld = self.field
        out = [fld.zero] * self.alg.dim
        for c, i in zip(qvec, self.comp):
            out[i] = c
        return out

    # -- splitting the semisimple quotient ------------------------------------

    def primitive_idempotents(self):
        quo = self.quo
        fld = self.field
        centrals = _central_primitives(quo)
        out = []
        for e in centrals:
            # in the split case each piece e is a block with center k e
            block = _corner_basis(quo, e)
            zdim = len(_center(quo, block, SpanSolverSafe(block, fld).coords))
            if zdim > 1:
                raise SplitOverExtensionNeeded(
                    zdim, f"central piece has a center of dimension {zdim} "
                    "over the base field")
            out.extend(_split_block(quo, e, block))
        return out


def _minpoly_in_corner(alg, z, f):
    """Monic minimal polynomial of z in the corner with identity f."""
    fld = alg.field
    vecs = [f]
    cur = f
    while True:
        cur = alg.mul(cur, z)
        sol = SpanSolverSafe(vecs, fld).coords(cur)
        if sol is not None:
            coeffs = [fld.neg(c) for c in sol] + [fld.one]
            return coeffs
        vecs.append(cur)
        if len(vecs) > alg.dim + 1:
            raise SolverError("minimal polynomial search overflow")


class SpanSolverSafe(SpanSolver):
    """`SpanSolver` for the families this module passes (all independent).

    It stays a class of this module, with the methods in its own namespace,
    because the benchmark's per-layer tracer (perfbench/layers.py) wraps
    these two methods by name and counts them as the fdalg layer.
    """

    __init__ = SpanSolver.__init__
    coords = SpanSolver.coords


def _combine(fld, coeffs, vecs, dim):
    """The length-dim coordinate vector sum_i coeffs[i] * vecs[i]."""
    out = [fld.zero] * dim
    for c, v in zip(coeffs, vecs):
        if not fld.is_zero(c):
            out = [fld.add(a, fld.mul(c, b)) for a, b in zip(out, v)]
    return out


def _central_primitives(quo):
    """Primitive idempotents of the center Z of a semisimple algebra.

    Refining 1 by each basis element z of Z splits every piece f by the
    roots, in the base field, of the minimal polynomial of f z.  When Z is
    split (k^r, as for End^0/rad of an indecomposable), every f z is
    diagonalisable with eigenvalues in k, so each resulting piece has
    f z = c_z f for every basis element z: the minimal polynomial of f z is
    linear, and refining f further keeps it so.  The f z span fZ, so fZ = k f
    and f is primitive.  When Z is not split, some piece has dim fZ > 1,
    which `_Quotient.primitive_idempotents` reports.
    """
    center = _center(quo, [quo.basis_vec(i) for i in range(quo.dim)],
                     lambda v: v)
    if not center:
        raise SolverError("center computation returned nothing")
    idems = [list(quo.unit)]
    for z in center:
        idems = _refine_by_element(quo, idems, z)
    return idems


def _center(quo, basis, coords):
    """Coordinate vectors, on basis, of the center of the subalgebra it spans:
    the kernel of x -> [x, b] for all b in basis, with coords(v) the
    coordinates on basis of an element v of the span."""
    m = len(basis)
    mat = []
    for bi in basis:
        cols = [coords(quo.sub(quo.mul(bk, bi), quo.mul(bi, bk)))
                for bk in basis]
        mat.extend([col[c] for col in cols] for c in range(m))
    return kernel_field(mat, m, quo.field)


def _refine_by_element(quo, idems, z):
    """Split each idempotent f using the spectrum of f z f in its corner."""
    out = []
    for f in idems:
        zf = quo.mul(quo.mul(f, z), f)
        mu = _minpoly_in_corner(quo, zf, f)
        pieces = _coprime_split(quo, zf, f, mu)
        out.extend(pieces)
    return out


def _coprime_split(quo, z, f, mu):
    """Idempotents from a coprime factorization of the minimal polynomial."""
    fld = quo.field
    comps = _coprime_components(fld, mu)
    if len(comps) <= 1:
        return [f]
    out = []
    for g in comps:
        rest = [fld.one]
        for h in comps:
            if h is not g:
                rest = upoly.mul(fld, rest, h)
        # u = rest * inverse of rest mod g  -> idempotent congruent to 1 mod g
        d, a, _ = upoly.xgcd(fld, rest, g)
        if len(d) != 1:
            raise SolverError("factors not coprime in idempotent split")
        u = upoly.mul(fld, a, rest)
        out.append(_eval_poly_at(quo, u, z, f))
    return out


def _eval_poly_at(quo, poly, z, f):
    """poly(z) evaluated with f as the corner identity."""
    out = [quo.field.zero] * quo.dim
    power = f
    for c in poly:
        if not quo.field.is_zero(c):
            out = quo.add(out, quo.smul(c, power))
        power = quo.mul(power, z)
    return out


def _coprime_components(fld, mu):
    """Pairwise coprime factors of mu: (x - a)^m for each root a of mu in the
    base field, in increasing order, then the cofactor with no root there
    when it is not constant."""
    comps = []
    for a in _root_candidates(fld, mu):
        if len(mu) <= 1:
            break
        lin = [fld.neg(a), fld.one]
        comp = [fld.one]
        while len(mu) > 1:
            quot, rem = upoly.divmod_poly(fld, mu, lin)
            if rem:
                break
            mu, comp = quot, upoly.mul(fld, comp, lin)
        if len(comp) > 1:
            comps.append(comp)
    if len(mu) > 1:
        comps.append(mu)
    return comps


def _root_candidates(fld, mu):
    """Base-field elements, in increasing order, that hold every root of mu:
    all of GF(p); over Q, 0 and the +-n/d with n dividing the lowest nonzero
    and d the leading coefficient of mu cleared to integers."""
    if fld.char:
        return range(fld.char)
    den = lcm(*(Fraction(c).denominator for c in mu))
    ints = [int(c * den) for c in mu]
    low = next(c for c in ints if c)
    cands = {0}
    for n in _divisors(low):
        for d in _divisors(ints[-1]):
            cands.update((Fraction(n, d), Fraction(-n, d)))
    return [fld.reduce(a) for a in sorted(cands)]


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


def _corner_basis(quo, e):
    """Basis of e A e inside the quotient algebra."""
    fld = quo.field
    vecs = []
    for i in range(quo.dim):
        v = quo.mul(quo.mul(e, quo.basis_vec(i)), e)
        vecs.append(v)
    red, pivots = rref_field(vecs, fld)
    return [list(r) for r in red]


def _split_block(quo, e, corner):
    """Orthogonal primitive idempotents refining a central idempotent."""
    fld = quo.field
    idems = [e]
    rng = random.Random(4242 + quo.dim)
    done = False
    rounds = 0
    while not done:
        rounds += 1
        if rounds > 400:
            if fld.char == 0:
                raise SplitOverExtensionNeeded(
                    0, "block did not split; likely a division algebra over Q")
            raise SolverError("block splitting stalled")
        done = True
        nxt = []
        for f in idems:
            cdim = len(_corner_basis(quo, f))
            if cdim == 1:
                nxt.append(f)
                continue
            done = False
            pieces = _try_split_once(quo, f, corner, rng)
            nxt.extend(pieces)
        idems = nxt
    return idems


def _try_split_once(quo, f, corner, rng):
    fld = quo.field
    candidates = list(corner)
    for _ in range(24):
        coeffs = [fld.from_int(rng.randrange(0, max(3, fld.char or 7)))
                  for _ in corner]
        candidates.append(_combine(fld, coeffs, corner, quo.dim))
    for z in candidates:
        zf = quo.mul(quo.mul(f, z), f)
        if quo.is_zero_vec(zf) or zf == f:
            continue
        mu = _minpoly_in_corner(quo, zf, f)
        pieces = _coprime_split(quo, zf, f, mu)
        if len(pieces) > 1:
            return pieces
    return [f]


def _charpoly(mat, field):
    """Characteristic polynomial coefficients (low -> high, monic) via Hessenberg."""
    n = len(mat)
    h = [row[:] for row in mat]
    # reduce to upper Hessenberg by similarity transforms
    for c in range(n - 2):
        piv = next((r for r in range(c + 1, n) if not field.is_zero(h[r][c])),
                   None)
        if piv is None:
            continue
        if piv != c + 1:
            h[piv], h[c + 1] = h[c + 1], h[piv]
            for r in range(n):
                h[r][piv], h[r][c + 1] = h[r][c + 1], h[r][piv]
        inv = field.inv(h[c + 1][c])
        for r in range(c + 2, n):
            if field.is_zero(h[r][c]):
                continue
            fmul = field.mul(h[r][c], inv)
            for j in range(n):
                h[r][j] = field.sub(h[r][j], field.mul(fmul, h[c + 1][j]))
            for i in range(n):
                h[i][c + 1] = field.add(h[i][c + 1], field.mul(fmul, h[i][r]))
    # recurrence on leading principal minors of (tI - H)
    polys = [[field.one]]
    for k in range(1, n + 1):
        # p_k = (t - h[k-1][k-1]) p_{k-1} - sum_{i<k-1} h[i][k-1] *
        #       (prod_{j=i+1}^{k-1} h[j][j-1]) * p_i
        t_minus = upoly.sub(field,
                            upoly.mul(field, [field.zero, field.one], polys[k - 1]),
                            upoly.smul(field, h[k - 1][k - 1], polys[k - 1]))
        acc = t_minus
        prod = field.one
        for i in range(k - 2, -1, -1):
            prod = field.mul(prod, h[i + 1][i])
            term = upoly.smul(field, field.mul(h[i][k - 1], prod), polys[i])
            acc = upoly.sub(field, acc, term)
        polys.append(acc)
    out = polys[n]
    out = out + [field.zero] * (n + 1 - len(out))
    return out
