"""Graded morphism solver for labeled bimodules.

A degree-d morphism M -> N is a matrix P over R with homogeneous entries
(deg P[i][j] = d + deg m_j - deg n_i) commuting with every right-action
generator and mapping each labeled component of the generic fiber of M into
the matching component of N.  All three condition families are linear in the
entry coefficients, so a basis comes out of one exact kernel computation
over the base field.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import DegreeOutOfWindow
from .fields import PrimeField, Rationals
from .laurent import LaurentPoly
from .linalg import kernel_field, kernel_mod_p, kernel_rational, rank_mod_p


def monomials_of_degree(nvars, deg):
    """Exponent tuples with sum deg, in a fixed (sorted) order."""
    if deg < 0:
        return []
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), deg):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    out.sort()
    return out


class SlotMap:
    """Coefficient coordinates for matrices with prescribed entry degrees."""

    def __init__(self, ring, row_degrees, col_degrees, degree):
        self.ring = ring
        self.slots = []          # (i, j, monomial)
        self.index = {}
        self.entry_monos = {}    # (i, j) -> list of monomials
        for i, dn in enumerate(row_degrees):
            for j, dm in enumerate(col_degrees):
                t = degree + dm - dn
                if t < 0 or t % 2:
                    continue
                monos = monomials_of_degree(ring.nvars, t // 2)
                self.entry_monos[(i, j)] = monos
                for mono in monos:
                    self.index[(i, j, mono)] = len(self.slots)
                    self.slots.append((i, j, mono))

    @property
    def size(self):
        return len(self.slots)

    def flatten(self, mat):
        """Coefficient vector of a matrix fitting this slot map."""
        vec = [self.ring.field.zero] * self.size
        for (i, j), monos in self.entry_monos.items():
            entry = mat[i][j]
            if not entry:
                continue
            for mono, c in entry.items():
                vec[self.index[(i, j, mono)]] = c
        return vec

    def unflatten(self, vec, nrows, ncols):
        mats = [[{} for _ in range(ncols)] for _ in range(nrows)]
        fld = self.ring.field
        for idx, (i, j, mono) in enumerate(self.slots):
            c = vec[idx]
            if isinstance(c, (int, np.integer)) and not isinstance(fld, Rationals):
                c = fld.from_int(int(c))
            elif isinstance(c, (int, np.integer)):
                c = Fraction(int(c))
            if not fld.is_zero(c):
                mats[i][j][mono] = c
        return mats


class _EqBuilder:
    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = {}

    def add(self, eq_key, col, coeff):
        if self.field.is_zero(coeff):
            return
        row = self.rows.setdefault(eq_key, {})
        s = self.field.add(row.get(col, self.field.zero), coeff)
        if self.field.is_zero(s):
            row.pop(col, None)
        else:
            row[col] = s

    def dense_rows(self):
        out = []
        for key in sorted(self.rows, key=repr):
            row = self.rows[key]
            if row:
                out.append(row)
        return out


def _solve_kernel(builder, ncols, field):
    rows = builder.dense_rows()
    if ncols == 0:
        return []
    if not rows:
        # no constraints: full space
        eye = []
        for i in range(ncols):
            v = [field.zero] * ncols
            v[i] = field.one
            eye.append(v)
        return eye
    if isinstance(field, PrimeField):
        mat = np.zeros((len(rows), ncols), dtype=np.int64)
        for r, row in enumerate(rows):
            for c, val in row.items():
                mat[r, c] = val
        return [list(v) for v in kernel_mod_p(mat, field.char)]
    if isinstance(field, Rationals):
        dense = []
        for row in rows:
            lcm = 1
            for val in row.values():
                lcm = lcm * val.denominator // math.gcd(lcm, val.denominator)
            vec = [0] * ncols
            for c, val in row.items():
                vec[c] = int(val * lcm)
            dense.append(vec)
        return kernel_rational(dense)
    dense = []
    for row in rows:
        vec = [field.zero] * ncols
        for c, val in row.items():
            vec[c] = val
        dense.append(vec)
    return kernel_field(dense, ncols, field)


def hom_space(m, n, degree):
    """Basis of degree-raising-by-`degree` morphisms M -> N, as matrices."""
    window = m.wordlen + n.wordlen + 2
    if abs(degree) > window:
        raise DegreeOutOfWindow(
            f"|{degree}| exceeds solver window {window}")
    ring = m.real.ring
    fld = ring.field
    slots = SlotMap(ring, n.degrees, m.degrees, degree)
    if slots.size == 0:
        return []
    eqs = _EqBuilder(fld, slots.size)
    # intertwining: P A_g = B_g P for every generator g
    for g in range(m.real.dim):
        a = m.act[g]
        b = n.act[g]
        for i in range(n.rank):
            for j in range(m.rank):
                # sum_k P[i,k] a[k,j] - sum_k b[i,k] P[k,j] = 0
                for k in range(m.rank):
                    monos = slots.entry_monos.get((i, k))
                    if monos and a[k][j]:
                        for mono in monos:
                            col = slots.index[(i, k, mono)]
                            for am, ac in a[k][j].items():
                                key = ("tw", g, i, j,
                                       tuple(x + y for x, y in zip(mono, am)))
                                eqs.add(key, col, ac)
                for k in range(n.rank):
                    monos = slots.entry_monos.get((k, j))
                    if monos and b[i][k]:
                        for mono in monos:
                            col = slots.index[(k, j, mono)]
                            for bm, bc in b[i][k].items():
                                key = ("tw", g, i, j,
                                       tuple(x + y for x, y in zip(mono, bm)))
                                eqs.add(key, col, fld.neg(bc))
    # labels: for every component of M, c . P x = 0 for null vectors c of the
    # matching component of N
    for lw, (w, xs) in enumerate(m.labels):
        nulls = n.label_nullspace(w)
        for xi, x in enumerate(xs):
            for ci, c in enumerate(nulls):
                for i in range(n.rank):
                    if not c[i]:
                        continue
                    for j in range(m.rank):
                        if not x[j]:
                            continue
                        monos = slots.entry_monos.get((i, j))
                        if not monos:
                            continue
                        q = ring.mul(c[i], x[j])
                        for mono in monos:
                            col = slots.index[(i, j, mono)]
                            for qm, qc in q.items():
                                key = ("lbl", lw, xi, ci,
                                       tuple(a + b for a, b in zip(mono, qm)))
                                eqs.add(key, col, qc)
    kernel = _solve_kernel(eqs, slots.size, fld)
    return [slots.unflatten(v, n.rank, m.rank) for v in kernel]


def graded_hom_dims(m, n, extra=2):
    """Laurent polynomial sum_d dim (k tensor_R Hom)^d v^d.

    The full morphism space in each degree is reduced modulo left
    multiplication by the positive-degree part of R (generated in degree 2).
    """
    window = m.wordlen + n.wordlen + extra
    ring = m.real.ring
    bases = {}
    for d in range(-window, window + 1):
        bases[d] = hom_space(m, n, d)
    out = LaurentPoly()
    for d in range(-window, window + 1):
        full = len(bases[d])
        if full == 0:
            continue
        prev = bases.get(d - 2, [])
        reduced = full - _image_rank(m, n, prev, d)
        if reduced:
            out = out + LaurentPoly.v(d, reduced)
    return out


def _image_rank(m, n, prev_basis, d):
    """Rank of {x_g * phi} inside Hom^d, for phi in the degree d-2 basis."""
    if not prev_basis:
        return 0
    ring = m.real.ring
    fld = ring.field
    slots = SlotMap(ring, n.degrees, m.degrees, d)
    rows = []
    for phi in prev_basis:
        for g in range(ring.nvars):
            xi = ring.gen(g)
            scaled = [[ring.mul(xi, e) if e else {} for e in row] for row in phi]
            rows.append(slots.flatten(scaled))
    if isinstance(fld, PrimeField):
        mat = np.array([[int(x) for x in row] for row in rows], dtype=np.int64)
        return rank_mod_p(mat, fld.char)
    from .linalg import rref_field
    _, pivots = rref_field(rows, fld)
    return len(pivots)


def solve_in_basis(columns, col_degrees, rhs, rhs_degree, ring):
    """Solve sum_l columns[l] * y_l = rhs with y_l homogeneous of degree
    rhs_degree - col_degrees[l]; returns the y vector (unique when the
    columns are independent) or None."""
    fld = ring.field
    nrows = len(rhs)
    unknowns = []
    index = {}
    for l, dl in enumerate(col_degrees):
        t = rhs_degree - dl
        if t < 0 or t % 2:
            monos = []
        else:
            monos = monomials_of_degree(ring.nvars, t // 2)
        for mono in monos:
            index[(l, mono)] = len(unknowns)
            unknowns.append((l, mono))
    eqs = {}

    def add(eq_key, col, coeff):
        if fld.is_zero(coeff):
            return
        row = eqs.setdefault(eq_key, {})
        s = fld.add(row.get(col, fld.zero), coeff)
        if fld.is_zero(s):
            row.pop(col, None)
        else:
            row[col] = s

    rhs_map = {}
    for i in range(nrows):
        for l, mono in unknowns:
            entry = columns[l][i]
            if not entry:
                continue
            col = index[(l, mono)]
            for em, ec in entry.items():
                add((i, tuple(a + b for a, b in zip(mono, em))), col, ec)
        if rhs[i]:
            for rm, rc in rhs[i].items():
                rhs_map[(i, rm)] = rc
    keys = sorted(set(eqs) | set(rhs_map), key=repr)
    ncols = len(unknowns)
    if isinstance(fld, PrimeField):
        a = np.zeros((len(keys), ncols), dtype=np.int64)
        b = np.zeros(len(keys), dtype=np.int64)
        for r, key in enumerate(keys):
            for c, val in eqs.get(key, {}).items():
                a[r, c] = val
            b[r] = int(rhs_map.get(key, 0))
        from .linalg import solve_mod_p
        sol = solve_mod_p(a, b, fld.char)
        if sol is None:
            return None
        sol = [fld.from_int(int(x)) for x in sol]
    else:
        rows = []
        rvec = []
        for key in keys:
            row = [fld.zero] * ncols
            for c, val in eqs.get(key, {}).items():
                row[c] = val
            rows.append(row)
            rvec.append(rhs_map.get(key, fld.zero))
        from .linalg import solve_field
        sol = solve_field(rows, rvec, fld) if rows else [fld.zero] * ncols
        if sol is None:
            return None
    out = [{} for _ in col_degrees]
    for (l, mono), idx in index.items():
        c = sol[idx]
        if not fld.is_zero(c):
            out[l][mono] = c
    return out
