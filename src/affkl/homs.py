"""Graded morphism solver for labeled bimodules.

A degree-d morphism M -> N is a matrix P over R with homogeneous entries
(deg P[i][j] = d + deg m_j - deg n_i) commuting with every right-action
generator and mapping each labeled component of the generic fiber of M into
the matching component of N.  All three condition families are linear in the
entry coefficients, so a basis comes out of one exact kernel computation
over the base field.
"""

import itertools

from .errors import DegreeOutOfWindow
from .laurent import LaurentPoly
from .linalg import kernel, rank, solve


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
        for (i, j, mono), c in zip(self.slots, vec):
            if not fld.is_zero(c):
                mats[i][j][mono] = c
        return mats


class _EqBuilder:
    """Sparse equations {column: coefficient} keyed by an equation id, with
    optional right-hand sides."""

    def __init__(self, field):
        self.field = field
        self.rows = {}
        self.rhs = {}

    def add(self, eq_key, col, coeff):
        if self.field.is_zero(coeff):
            return
        row = self.rows.setdefault(eq_key, {})
        s = self.field.add(row.get(col, self.field.zero), coeff)
        if self.field.is_zero(s):
            row.pop(col, None)
        else:
            row[col] = s

    def set_rhs(self, eq_key, value):
        self.rhs[eq_key] = value

    def system(self):
        """Rows and right-hand sides, one pair per equation id."""
        keys = list(self.rows) + [k for k in self.rhs if k not in self.rows]
        return ([self.rows.get(k, {}) for k in keys],
                [self.rhs.get(k, self.field.zero) for k in keys])


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
    eqs = _EqBuilder(fld)
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
    return [slots.unflatten(v, n.rank, m.rank)
            for v in kernel(list(eqs.rows.values()), slots.size, fld)]


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
            rows.append({c: x for c, x in enumerate(slots.flatten(scaled))
                         if not fld.is_zero(x)})
    return rank(rows, slots.size, fld)


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
    eqs = _EqBuilder(fld)
    for i in range(nrows):
        for l, mono in unknowns:
            entry = columns[l][i]
            if not entry:
                continue
            col = index[(l, mono)]
            for em, ec in entry.items():
                eqs.add((i, tuple(a + b for a, b in zip(mono, em))), col, ec)
        for rm, rc in rhs[i].items():
            eqs.set_rhs((i, rm), rc)
    rows, values = eqs.system()
    sol = solve(rows, values, len(unknowns), fld)
    if sol is None:
        return None
    out = [{} for _ in col_degrees]
    for (l, mono), idx in index.items():
        c = sol[idx]
        if not fld.is_zero(c):
            out[l][mono] = c
    return out
