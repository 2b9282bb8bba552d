"""Bimodules with group-labeled generic-fiber decompositions.

A LabeledBimodule is a free graded left module over R = O(t*) together with
commuting right-action matrices for the polynomial generators and, for each
group element in its support, polynomial vectors spanning that component of
the generic fiber.  Construction keeps three invariants: the right-action
matrices commute, each label vector satisfies the twisted eigencondition
exactly, and label vectors are homogeneous as module elements.
"""

from .errors import NotLengthZero, RealizationMismatch, UnknownCharacter
from .hecke import HeckeElt, mult as hecke_mult, unit as hecke_unit
from .laurent import LaurentPoly, ONE, V
from .linalg import poly_kernel, poly_rank
from .weyl import wid


class LabeledBimodule:
    __slots__ = ("real", "degrees", "act", "labels", "wordlen", "char_hint",
                 "_label_null")

    def __init__(self, real, degrees, act, labels, wordlen=0, char_hint=None):
        self.real = real
        self.degrees = tuple(degrees)
        self.act = act
        self.labels = tuple(sorted(
            labels, key=lambda t: (t[0].length, t[0].canonical_str())))
        self.wordlen = wordlen
        self.char_hint = char_hint
        self._label_null = {}

    @property
    def rank(self):
        return len(self.degrees)

    def label_map(self):
        return {w: vecs for w, vecs in self.labels}

    def graded_rank(self):
        """Sum of v^(basis degree) over the left basis."""
        out = LaurentPoly()
        for d in self.degrees:
            out = out + LaurentPoly.v(d)
        return out

    def shifted(self, n):
        """Grading shift (n): degrees drop by n, character picks up v^-n."""
        if n == 0:
            return self
        hint = self.char_hint.scale(LaurentPoly.v(-n)) if self.char_hint else None
        return LabeledBimodule(
            self.real,
            tuple(d - n for d in self.degrees),
            self.act,
            self.labels,
            wordlen=self.wordlen,
            char_hint=hint,
        )

    def label_nullspace(self, w):
        """Left-null vectors of the w-component span (cleared to R)."""
        if w not in self._label_null:
            ring = self.real.ring
            vecs = self.label_map().get(w)
            if not vecs:
                ident = []
                for i in range(self.rank):
                    row = [ring.zero] * self.rank
                    row[i] = ring.one
                    ident.append(row)
                self._label_null[w] = ident
            else:
                rows = [[v[i] for v in vecs] for i in range(self.rank)]
                cols = len(vecs)
                transposed = [[rows[i][j] for i in range(self.rank)]
                              for j in range(cols)]
                self._label_null[w] = poly_kernel(transposed, self.rank, ring)
        return self._label_null[w]

    def validate(self):
        """Check the structural invariants; raise ValueError on the first
        that fails."""
        ring = self.real.ring
        n = self.real.dim
        for g in range(n):
            for h in range(g + 1, n):
                ab = ring.mat_mul(self.act[g], self.act[h])
                ba = ring.mat_mul(self.act[h], self.act[g])
                if ab != ba:
                    raise ValueError(
                        f"right actions of x{g}, x{h} do not commute")
        for w, vecs in self.labels:
            for g in range(n):
                eig = self.real.act_poly(w, ring.gen(g))
                for v in vecs:
                    lhs = ring.mat_vec(self.act[g], v)
                    rhs = [ring.mul(eig, x) for x in v]
                    if lhs != rhs:
                        raise ValueError(f"eigencondition fails for label {w}")
        allvecs = [v for _, vecs in self.labels for v in vecs]
        if len(allvecs) != self.rank:
            raise ValueError("label dimensions do not sum to rank")
        if poly_rank([list(v) for v in allvecs], ring) != self.rank:
            raise ValueError("label vectors are not jointly spanning")
        return True


def character(m):
    """Class of the bimodule in the Hecke algebra (Bott-Samelson products and
    registered summands only)."""
    if m.char_hint is None:
        raise UnknownCharacter("bimodule has no assigned character")
    return m.char_hint


def f_object(real, w):
    """Rank-one standard object: right action twisted by the finite image."""
    ring = real.ring
    act = tuple(
        [[real.act_poly(w, ring.gen(g))]]
        for g in range(real.dim)
    )
    hint = hecke_unit(real.datum, w) if w.length == 0 else None
    return LabeledBimodule(
        real, (0,), act, ((w, ((ring.one,),)),), wordlen=0, char_hint=hint)


def b_object(real, s):
    """The generator attached to a simple reflection: R (x)_{R^s} R (1)."""
    key = s.index
    if key in real._b_cache:
        return real._b_cache[key]
    ring = real.ring
    fld = real.field
    idx = s.index
    delta = real.delta_poly(idx)
    alpha = real.alpha_poly(idx)
    sdelta = ring.sub(delta, alpha)
    acts = []
    for g in range(real.dim):
        xi = ring.gen(g)
        c = real.cov_vec[idx][g]
        a11 = ring.sub(xi, ring.smul(c, delta))
        a12 = ring.neg(ring.smul(c, ring.mul(delta, sdelta)))
        a21 = ring.const(0) if fld.is_zero(c) else {(0,) * real.dim: c}
        a22 = ring.add(xi, ring.smul(c, sdelta))
        acts.append([[a11, a12], [a21, a22]])
    e_vec = (ring.sub(alpha, delta), ring.one)
    s_vec = (delta, ring.neg(ring.one))
    hecke = HeckeElt(real.datum, {s.as_element: ONE, wid(real.datum): V})
    out = LabeledBimodule(
        real, (-1, 1), tuple(acts),
        ((wid(real.datum), (e_vec,)), (s.as_element, (s_vec,))),
        wordlen=1, char_hint=hecke)
    real._b_cache[key] = out
    return out


def tensor(m, n):
    """Product over R: left basis pairs, right action through the second
    factor, labels multiplied with the first factor's twist."""
    if m.real is not n.real:
        raise RealizationMismatch("tensor factors over different realizations")
    ring = m.real.ring
    nm, nn = m.rank, n.rank
    degrees = tuple(m.degrees[i] + n.degrees[j]
                    for i in range(nm) for j in range(nn))
    acts = []
    for g in range(m.real.dim):
        size = nm * nn
        big = [[ring.zero] * size for _ in range(size)]
        for l in range(nn):
            for j in range(nn):
                entry = n.act[g][l][j]
                if not entry:
                    continue
                block = ring.mat_eval_poly(entry, m.act, nm)
                for k in range(nm):
                    for i in range(nm):
                        if block[k][i]:
                            big[k * nn + l][i * nn + j] = ring.add(
                                big[k * nn + l][i * nn + j], block[k][i])
        acts.append(big)
    labels = {}
    for u, xs in m.labels:
        twist = m.real.fin_action_matrix(u)
        for v, ys in n.labels:
            w = u * v
            bucket = labels.setdefault(w, [])
            for x in xs:
                for y in ys:
                    ty = [ring.apply_linear(yj, twist) for yj in y]
                    vec = tuple(
                        ring.mul(x[i], ty[j]) if x[i] and ty[j] else ring.zero
                        for i in range(nm) for j in range(nn)
                    )
                    bucket.append(vec)
    hint = None
    if m.char_hint is not None and n.char_hint is not None:
        hint = hecke_mult(m.char_hint, n.char_hint)
    return LabeledBimodule(
        m.real, degrees, tuple(acts),
        tuple((w, tuple(vs)) for w, vs in labels.items()),
        wordlen=m.wordlen + n.wordlen,
        char_hint=hint,
    )


def bott_samelson(real, omega, word, shift=0):
    """F_omega * B_{s_1} * ... * B_{s_k} (shift)."""
    if omega.length != 0:
        raise NotLengthZero(f"omega has length {omega.length}")
    out = f_object(real, omega)
    for s in word:
        out = tensor(out, b_object(real, s))
    return out.shifted(shift)
