"""Graded morphism solver for labeled bimodules.

A degree-d morphism M -> N is a matrix P over R with homogeneous entries
(deg P[i][j] = d + deg m_j - deg n_i) commuting with every right-action
generator and mapping each labeled component of the generic fiber of M into
the matching component of N.  All three condition families are linear in the
entry coefficients, so a basis comes out of one exact kernel computation
over the base field.

Label equations c . P x = 0 (x in M_w, c a null vector of N_w) are built
only when N has a label w' != w acting on t by w's matrix over the base
field (`Realization.fin_action_matrix`).  The rest follow from P A_g = B_g P
and the invariants of `LabeledBimodule`: label vectors satisfy A_g x =
w(x_g) x and those of N span N, so over Frac(R) N is the direct sum of the
joint eigenspaces of its label classes, and P x lies in that of w's class:
N_w if w is alone in it, 0 if it is empty.  So the kernel stays the same.

Each system is built in integer arrays and handed to `linalg` as COO
triplets.  A monomial is a mixed-radix code (exponent i is digit i), so
multiplying monomials adds codes; polynomial entries become term arrays once
per call, which are joined with the unknowns on a shared index.  Over GF(p)
coefficients are int64 residues; over Q each family of equations is cleared
of denominators (per generator for P A_g = B_g P, lcm(x) * lcm(c) for a
label vector x and null vector c), which leaves the row space unchanged.
"""

import collections
import functools
import itertools
import math

import numpy as np

from .errors import DegreeOutOfWindow
from .laurent import LaurentPoly
from .linalg import kernel, rank, solve


@functools.lru_cache(maxsize=None)
def monomials_of_degree(nvars, deg):
    """Exponent tuples with sum deg, in a fixed (sorted) order, as a tuple
    shared by every caller."""
    if deg < 0:
        return ()
    return tuple(sorted(
        tuple(combo.count(i) for i in range(nvars)) for combo in
        itertools.combinations_with_replacement(range(nvars), deg)))


class SlotMap:
    """Coefficient coordinates for matrices with prescribed entry degrees;
    the int arrays rows, cols and exps give slot s as (i, j, monomial)."""

    def __init__(self, ring, row_degrees, col_degrees, degree):
        self.ring = ring
        self.slots = []          # (i, j, monomial)
        self.index = {}
        self.entry_monos = {}    # (i, j) -> tuple of monomials
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
        flat = np.array([(i, j, *mono) for i, j, mono in self.slots],
                        dtype=np.int64).reshape(self.size, 2 + ring.nvars)
        self.rows, self.cols, self.exps = flat[:, 0], flat[:, 1], flat[:, 2:]

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


# -- integer-array assembly ---------------------------------------------------


def _terms(items, nidx, ring, group=None):
    """Term arrays of (index tuple, polynomial) pairs: an (nterms, nidx)
    index array, an (nterms, nvars) exponent array and the coefficients as
    integers.  Over GF(p) these are int64 residues; over Q each is multiplied
    by the lcm of the denominators of the terms sharing its index `group`
    (of all terms if group is None), as Python ints."""
    idx, exps, coefs = [], [], []
    for key, poly in items:
        for mono, c in poly.items():
            idx.append(key)
            exps.append(mono)
            coefs.append(c)
    idx = np.array(idx, dtype=np.int64).reshape(len(coefs), nidx)
    exps = np.array(exps, dtype=np.int64).reshape(len(coefs), ring.nvars)
    if ring.field.char:
        return idx, exps, np.array(coefs, dtype=np.int64)
    groups = idx[:, group].tolist() if group is not None else [0] * len(coefs)
    lcm = {}
    for g, c in zip(groups, coefs):
        lcm[g] = math.lcm(lcm.get(g, 1), c.denominator)
    return idx, exps, np.array([c.numerator * (lcm[g] // c.denominator)
                                for g, c in zip(groups, coefs)], dtype=object)


def _degree(exps):
    """Largest exponent sum among the rows of exps (0 when there are none)."""
    return int(exps.sum(axis=1).max(initial=0))


def _join(keys, term_keys, nkeys):
    """Every pair (t, s) with keys[s] == term_keys[t], as two index arrays:
    each term meets its group of the entries sorted by key, via np.repeat."""
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=nkeys)
    reps = counts[term_keys]
    t = np.repeat(np.arange(len(term_keys)), reps)
    shift = (np.cumsum(counts) - counts)[term_keys] - (np.cumsum(reps) - reps)
    return t, order[np.repeat(shift, reps) + np.arange(len(t))]


def _codes(exps, radix):
    """Mixed-radix codes of exponent rows with every exponent below radix."""
    return np.ravel_multi_index(exps.T, (radix,) * exps.shape[1])


def _system(*families):
    """COO triplets of a system given as families (key, dims, cols, vals):
    entry (equation key[.][k], column cols[k]) gains vals[k].  Each family's
    equations are numbered by np.unique on its key, which indexes a grid of
    shape dims (np.ravel_multi_index raises rather than wraps on overflow)."""
    rows, nrows = [], 0
    for key, dims, _, _ in families:
        ids, inv = np.unique(np.ravel_multi_index(key, dims),
                             return_inverse=True)
        rows.append(inv + nrows)
        nrows += len(ids)
    return (np.concatenate(rows), np.concatenate([f[2] for f in families]),
            np.concatenate([f[3] for f in families]))


def hom_space(m, n, degree):
    """Basis of degree-raising-by-`degree` morphisms M -> N, as matrices."""
    window = m.wordlen + n.wordlen + 2
    if abs(degree) > window:
        raise DegreeOutOfWindow(
            f"|{degree}| exceeds solver window {window}")
    ring = m.real.ring
    slots = SlotMap(ring, n.degrees, m.degrees, degree)
    if slots.size == 0:
        return []
    # the assembly's intermediate arrays are freed before the kernel runs
    return [slots.unflatten(v, n.rank, m.rank)
            for v in kernel(*_hom_equations(m, n, slots), slots.size,
                            ring.field)]


def _shared_labels(m, n):
    """Indices of the labels w of M for which N has a label w' != w acting
    on t by the same matrix as w: only these need label equations."""
    key = m.real.fin_action_matrix
    count = collections.Counter(key(w) for w, _ in n.labels)
    own = n.label_map()
    return [lw for lw, (w, _) in enumerate(m.labels)
            if count[key(w)] > (w in own)]


def _hom_equations(m, n, slots):
    """COO triplets of the conditions on a morphism M -> N in `slots`."""
    ring = m.real.ring
    # the action matrices of M (tag 0) and N (tag 1), per generator g
    idx, exps, vals = _terms(
        (((t, g, r, c), e) for t, mod in enumerate((m, n))
         for g, mat in enumerate(mod.act) for r, row in enumerate(mat)
         for c, e in enumerate(row) if e), 4, ring, group=1)
    # the label vectors x of M and null vectors c of the same label in N,
    # for the labels whose equations P A_g = B_g P leave open
    shared = _shared_labels(m, n)
    xs = [(lw, x) for lw in shared for x in m.labels[lw][1]]
    cs = [(lw, c) for lw in shared for c in n.label_nullspace(m.labels[lw][0])]
    x_idx, x_exps, x_vals = _terms(
        (((v, j), e) for v, (_, x) in enumerate(xs) for j, e in enumerate(x)
         if e), 2, ring, group=0)
    c_idx, c_exps, c_vals = _terms(
        (((v, i), e) for v, (_, c) in enumerate(cs) for i, e in enumerate(c)
         if e), 2, ring, group=0)
    # every product term c_i x_j of a pair (x, c) sharing a label
    tx, tc = _join(np.array([lw for lw, _ in cs], dtype=np.int64)[c_idx[:, 0]],
                   np.array([lw for lw, _ in xs], dtype=np.int64)[x_idx[:, 0]],
                   len(m.labels))
    l_exps = x_exps[tx] + c_exps[tc]
    radix = 1 + _degree(slots.exps) + max(_degree(exps), _degree(l_exps))
    s_code, code = _codes(slots.exps, radix), _codes(exps, radix)
    # intertwining, P A_g = B_g P: equation (g, i, j, monomial) gets slot
    # (i, k) times A_g[k][j] and slot (k, j) times -B_g[i][k]
    a, b = np.flatnonzero(idx[:, 0] == 0), np.flatnonzero(idx[:, 0] == 1)
    ta, sa = _join(slots.cols, idx[a, 2], m.rank)
    tb, sb = _join(slots.rows, idx[b, 3], n.rank)
    ta, tb = a[ta], b[tb]
    # labels, c . P x = 0: equation (x, c, monomial) gets slot (i, j) times
    # c_i x_j
    tl, sl = _join(slots.rows * m.rank + slots.cols,
                   c_idx[tc, 1] * m.rank + x_idx[tx, 1], n.rank * m.rank)
    return _system(
        ((np.concatenate([idx[ta, 1], idx[tb, 1]]),
          np.concatenate([slots.rows[sa], idx[tb, 2]]),
          np.concatenate([idx[ta, 3], slots.cols[sb]]),
          np.concatenate([s_code[sa] + code[ta], s_code[sb] + code[tb]])),
         (m.real.dim, n.rank, m.rank, radix ** ring.nvars),
         np.concatenate([sa, sb]), np.concatenate([vals[ta], -vals[tb]])),
        ((x_idx[tx[tl], 0], c_idx[tc[tl], 0],
          s_code[sl] + _codes(l_exps, radix)[tl]),
         (len(xs), len(cs), radix ** ring.nvars), sl,
         x_vals[tx[tl]] * c_vals[tc[tl]]))


def graded_hom_dims(m, n):
    """Laurent polynomial sum_d dim (k tensor_R Hom)^d v^d.

    The full morphism space in each degree is reduced modulo left
    multiplication by the positive-degree part of R (generated in degree 2).
    Degrees run over |d| <= m.wordlen + n.wordlen + 2.
    """
    window = m.wordlen + n.wordlen + 2
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
    nv = ring.nvars
    idx, exps, vals = _terms(
        (((k, i, j), e) for k, phi in enumerate(prev_basis)
         for i, row in enumerate(phi) for j, e in enumerate(row) if e),
        3, ring, group=0)
    radix = 2 + _degree(exps)
    # vector (k, g) is x_g * phi_k: each term of phi_k with x_g's code added,
    # at a column numbered by the (i, j, monomial) it reaches
    code = (_codes(exps, radix)[:, None]
            + _codes(np.eye(nv, dtype=np.int64), radix)).ravel()
    _, cols = np.unique(np.ravel_multi_index(
        (np.repeat(idx[:, 1], nv), np.repeat(idx[:, 2], nv), code),
        (n.rank, m.rank, radix ** nv)), return_inverse=True)
    triplets = _system(
        ((np.repeat(idx[:, 0], nv), np.tile(np.arange(nv), len(vals))),
         (len(prev_basis), nv), cols, np.repeat(vals, nv)))
    return rank(*triplets, int(cols.max()) + 1, ring.field)


def solve_in_basis(columns, col_degrees, rhss, rhs_degree, ring):
    """Solve sum_l columns[l] * y_l = rhs for every rhs in rhss (all of
    degree rhs_degree), with y_l homogeneous of degree rhs_degree -
    col_degrees[l].  Returns one y vector per rhs (unique when the columns
    are independent), or None if some rhs has no solution."""
    if not rhss:
        return []
    fld = ring.field
    unknowns = [(l, mono) for l, dl in enumerate(col_degrees)
                if (rhs_degree - dl) % 2 == 0
                for mono in monomials_of_degree(ring.nvars,
                                                (rhs_degree - dl) // 2)]
    u_flat = np.array([(l, *mono) for l, mono in unknowns],
                      dtype=np.int64).reshape(len(unknowns), 1 + ring.nvars)
    # columns (tag 0) and right-hand sides (tag 1) form one family
    idx, exps, vals = _terms(
        (((t, l, i), e) for t, vecs in enumerate((columns, rhss))
         for l, vec in enumerate(vecs) for i, e in enumerate(vec) if e),
        3, ring)
    radix = 1 + _degree(u_flat[:, 1:]) + _degree(exps)
    code = _codes(exps, radix)
    # [A | B]: equation (i, monomial) gets unknown (l, mono) times
    # columns[l][i], and column len(unknowns) + k gets rhss[k][i]
    c, r = np.flatnonzero(idx[:, 0] == 0), np.flatnonzero(idx[:, 0] == 1)
    t, u = _join(u_flat[:, 0], idx[c, 1], len(columns))
    t = c[t]
    triplets = _system(
        ((np.concatenate([idx[t, 2], idx[r, 2]]),
          np.concatenate([_codes(u_flat[u, 1:], radix) + code[t], code[r]])),
         (len(rhss[0]), radix ** ring.nvars),
         np.concatenate([u, len(unknowns) + idx[r, 1]]),
         np.concatenate([vals[t], vals[r]])))
    sols = solve(*triplets, len(unknowns), len(rhss), fld)
    if sols is None:
        return None
    out = []
    for sol in sols:
        y = [{} for _ in col_degrees]
        for (l, mono), c in zip(unknowns, sol):
            if not fld.is_zero(c):
                y[l][mono] = c
        out.append(y)
    return out
