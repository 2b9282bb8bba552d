"""Finite-dimensional associative algebras: radical and primitive idempotents.

The algebra is given by structure constants over a field object.  The radical
is cut out by the characteristic-polynomial-coefficient chain: its first step
is the kernel of the trace form, which is the radical in characteristic 0;
in characteristic p the chain goes on at the coefficients of index p, p^2, ...
(the trace form alone fails when p divides dimensions).  Idempotents of the
semisimple quotient are found via the center (Frobenius-fixed subalgebra over
GF(p), minimal-polynomial factorization over Q) and block splitting,
then lifted through the radical by Newton iteration.  Linear algebra goes
through the generic field elimination of `linalg`.
"""

import random
from fractions import Fraction

from . import upoly
from .errors import SolverError, SplitOverExtensionNeeded
from .fields import Rationals
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
            # check block center = base field
            block = _corner_basis(quo, e)
            zdim = _center_dim_of_corner(quo, e, block)
            if zdim > 1:
                raise SplitOverExtensionNeeded(
                    zdim, f"block center has degree {zdim} over the base field")
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
    """Primitive idempotents of the center of a semisimple algebra."""
    fld = quo.field
    n = quo.dim
    # center: [x, b_i] = 0 for all i, linear in the coordinates of x
    mat = []
    for i in range(n):
        bi = quo.basis_vec(i)
        cols = []
        for k in range(n):
            bk = quo.basis_vec(k)
            cols.append(quo.sub(quo.mul(bk, bi), quo.mul(bi, bk)))
        for comp in range(n):
            mat.append([cols[k][comp] for k in range(n)])
    center = kernel_field(mat, n, fld)
    if not center:
        raise SolverError("center computation returned nothing")
    if fld.char > 0:
        fixed = _frobenius_fixed(quo, center)
    else:
        fixed = center
    # refine the single idempotent 1 by splitting with fixed-space elements
    idems = [list(quo.unit)]
    for z in fixed:
        idems = _refine_by_element(quo, idems, z)
    if fld.char == 0:
        rng = random.Random(20240 + quo.dim)
        for _ in range(6):
            z = _combine(fld, [fld.from_int(rng.randrange(-9, 10))
                               for _ in center], center, n)
            idems = _refine_by_element(quo, idems, z)
    return idems


def _frobenius_fixed(quo, center_basis):
    """Basis of {z in center : z^p = z} (spanned by the block units)."""
    fld = quo.field
    m = len(center_basis)
    cols = []
    for v in center_basis:
        zp = _alg_pow(quo, v, fld.char)
        sol = SpanSolverSafe(center_basis, fld).coords(zp)
        if sol is None:
            raise SolverError("center is not closed under Frobenius?")
        cols.append(sol)
    rows = []
    for r in range(m):
        row = []
        for c in range(m):
            val = cols[c][r]
            if r == c:
                val = fld.sub(val, fld.one)
            row.append(val)
        rows.append(row)
    return [_combine(fld, coeffs, center_basis, quo.dim)
            for coeffs in kernel_field(rows, m, fld)]


def _alg_pow(alg, x, e):
    out = list(alg.unit)
    base = x
    while e:
        if e & 1:
            out = alg.mul(out, base)
        base = alg.mul(base, base)
        e >>= 1
    return out


def _refine_by_element(quo, idems, z):
    """Split each idempotent f using the spectrum of f z f in its corner."""
    fld = quo.field
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
    """Split mu into pairwise coprime factors (primary components, refined)."""
    if fld.char == 0:
        return _factor_q(mu)
    comps = []
    for g, m in upoly.squarefree_decomposition(fld, mu):
        # separate distinct irreducible factors of the squarefree g
        pieces = [g]
        changed = True
        while changed:
            changed = False
            nxt = []
            for piece in pieces:
                if len(piece) <= 2:
                    nxt.append(piece)
                    continue
                d = upoly.frobenius_factor_split(fld, piece)
                if d is None:
                    nxt.append(piece)
                else:
                    other, rem = upoly.divmod_poly(fld, piece, d)
                    if rem:
                        raise SolverError("inexact factor split")
                    nxt.extend([d, other])
                    changed = True
            pieces = nxt
        for piece in pieces:
            comp = [fld.one]
            for _ in range(m):
                comp = upoly.mul(fld, comp, piece)
            comps.append(comp)
    return comps


def _factor_q(mu):
    """Coprime factorization over Q via sympy (irreducible powers)."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c) * x ** i for i, c in enumerate(mu))
    _, factors = sympy.Poly(expr, x).factor_list()
    out = []
    for fac, mult in factors:
        coeffs = [Fraction(str(c)) for c in reversed(fac.all_coeffs())]
        comp = [Fraction(1)]
        for _ in range(mult):
            comp = upoly.mul(Rationals(), comp, coeffs)
        out.append(comp)
    return out


def _corner_basis(quo, e):
    """Basis of e A e inside the quotient algebra."""
    fld = quo.field
    vecs = []
    for i in range(quo.dim):
        v = quo.mul(quo.mul(e, quo.basis_vec(i)), e)
        vecs.append(v)
    red, pivots = rref_field(vecs, fld)
    return [list(r) for r in red]


def _center_dim_of_corner(quo, e, corner):
    """Dimension of the center of the corner algebra e A e."""
    fld = quo.field
    m = len(corner)
    span = SpanSolverSafe(corner, fld)
    mat = []
    for bi in corner:
        cols = []
        for bk in corner:
            comm = quo.sub(quo.mul(bk, bi), quo.mul(bi, bk))
            cols.append(span.coords(comm))
        for comp in range(m):
            mat.append([cols[k][comp] for k in range(m)])
    kern = kernel_field(mat, m, fld)
    return len(kern)


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
