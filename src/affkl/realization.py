"""Realization data for the graded bimodule category over O(t*).

t is the coefficient extension of the lattice X containing the roots; its
coordinate vectors sit in degree 2 inside R = O(t*).  The group acts on R
through its finite quotient, by the same matrices it uses on X.  Each simple
reflection s carries a "root" alpha_s in t, a "coroot" functional on t, and
a degree-2 element delta_s pairing to 1 with the coroot: for finite s these
are the datum's root/coroot pair, for affine s the negatives of the
component's maximal short root pair.  delta_s exists iff the coroot
functional survives reduction mod p, which is the lattice-torsion condition.
"""

import hashlib
import json

from .errors import NoDelta
from .fields import field_for
from .polys import PolyRing
from .weyl import simple_reflections


class Realization:
    def __init__(self, datum, char, field, refls, alpha_vec, cov_vec, delta_vec):
        self.datum = datum
        self.char = char
        self.field = field
        self.dim = datum.rank
        self.ring = PolyRing(field, datum.rank)
        self.refls = refls
        self.alpha_vec = alpha_vec          # s index -> vector in t
        self.cov_vec = cov_vec              # s index -> functional on t
        self.delta_vec = delta_vec          # s index -> vector in t
        self._act_cache = {}
        self._b_cache = {}

    # -- field vectors and polynomials -------------------------------------

    def alpha_poly(self, idx):
        return self.ring.linear(self.alpha_vec[idx])

    def delta_poly(self, idx):
        return self.ring.linear(self.delta_vec[idx])

    def pair(self, vec, cov):
        fld = self.field
        total = fld.zero
        for a, b in zip(vec, cov):
            total = fld.add(total, fld.mul(a, b))
        return total

    def fin_action_matrix(self, x):
        """Matrix of the finite image of x acting on t (columns = images),
        kept by the number of x's finite part."""
        mat = self._act_cache.get(x.fin_id)
        if mat is None:
            mat = self._act_cache[x.fin_id] = tuple(
                tuple(self.field.from_int(c) for c in row) for row in x.fin)
        return mat

    def act_poly(self, x, f):
        """Apply the finite image of x to a polynomial."""
        return self.ring.apply_linear(f, self.fin_action_matrix(x))

    def realization_hash(self):
        blob = json.dumps({
            "datum": self.datum.fingerprint,
            "char": self.char,
            "field": self.field.describe(),
            "alpha": [[self.field.to_str(c) for c in v] for v in self.alpha_vec],
            "delta": [[self.field.to_str(c) for c in v] for v in self.delta_vec],
        }, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_realization(datum, char):
    """Deterministic realization over GF(char), or over Q when char=0.

    delta_s is the least standard-basis solution of <x, cov_s> = 1.  The
    standing assumptions on char are not checked here: the command line
    gates them (`cli._gate_assumptions`).
    """
    field = field_for(char)
    refls = simple_reflections(datum, conj_search=False)
    alpha_vec, cov_vec, delta_vec = [], [], []
    for s in refls:
        if s.kind == "finite":
            root = datum.simple_roots[s.root_index]
            cov = datum.simple_coroots[s.root_index]
            a = tuple(field.from_int(x) for x in root)     # alpha_s in t
            c = tuple(field.from_int(x) for x in cov)      # its coroot on t
        else:
            beta = s.beta
            betav = datum.coroot_of(beta)
            a = tuple(field.from_int(-x) for x in beta)
            c = tuple(field.from_int(-x) for x in betav)
        alpha_vec.append(a)
        cov_vec.append(c)
        delta_vec.append(_least_delta(field, c, s.index))
    real = Realization(datum, char, field, refls, tuple(alpha_vec),
                       tuple(cov_vec), tuple(delta_vec))
    # the defining conditions: <delta_s, cov_s> = 1 and s(delta) = delta - alpha
    for s in refls:
        assert real.pair(real.delta_vec[s.index], real.cov_vec[s.index]) == field.one
    return real


def _least_delta(field, cov, idx):
    for i, c in enumerate(cov):
        if not field.is_zero(c):
            inv = field.inv(c)
            return tuple(inv if j == i else field.zero for j in range(len(cov)))
    raise NoDelta(
        f"coroot functional of reflection {idx} vanishes over {field!r} "
        "(p-torsion obstruction)")
