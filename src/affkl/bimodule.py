"""Bimodules with group-labeled generic-fiber decompositions.

A LabeledBimodule is a free graded left module over R = O(t*) together with
commuting right-action matrices for the polynomial generators and, for each
group element in its support, polynomial vectors spanning that component of
the generic fiber.  Construction keeps three invariants: the right-action
matrices commute, each label vector satisfies the twisted eigencondition
exactly, and label vectors are homogeneous as module elements.

Conjugation by a length-zero element omega, m -> F_omega * m * F_omega^-1,
is `transport`: it applies omega to the action matrices and label vectors
and relabels w -> omega w omega^-1, without forming the two tensor products.
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
        self.labels = tuple(sorted(labels, key=lambda t: t[0].sort_key()))
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
                self._label_null[w] = poly_kernel(
                    [list(v) for v in vecs], self.rank, ring)
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
    factor, labels multiplied with the first factor's twist.

    Entry (l, j) of n's action for x_g, a polynomial sum_mu c_mu x^mu, acts
    on the m factor by sum_mu c_mu A^mu, where A^mu is the product of m's
    action matrices: each A^mu is built once per product, as a lower
    monomial's matrix times one action matrix, and shared by every g and
    every entry."""
    if m.real is not n.real:
        raise RealizationMismatch("tensor factors over different realizations")
    ring = m.real.ring
    nm, nn = m.rank, n.rank
    size = nm * nn
    degrees = tuple(m.degrees[i] + n.degrees[j]
                    for i in range(nm) for j in range(nn))
    memo = {(0,) * ring.nvars: [[ring.one if i == k else ring.zero
                                 for i in range(nm)] for k in range(nm)]}

    def mono_mat(mu):
        if mu not in memo:
            t = next(i for i, e in enumerate(mu) if e)
            lower = mu[:t] + (mu[t] - 1,) + mu[t + 1:]
            memo[mu] = ring.mat_mul(mono_mat(lower), m.act[t])
        return memo[mu]

    acts = []
    for g in range(m.real.dim):
        big = [[ring.zero] * size for _ in range(size)]
        for l, row in enumerate(n.act[g]):
            for j, entry in enumerate(row):
                if not entry:
                    continue
                terms = [(c, mono_mat(mu)) for mu, c in entry.items()]
                for k in range(nm):
                    for i in range(nm):
                        big[k * nn + l][i * nn + j] = ring.lincomb(
                            (c, a[k][i]) for c, a in terms)
        acts.append(big)
    labels = {}
    for u, xs in m.labels:
        twist = m.real.fin_action_matrix(u)
        for v, ys in n.labels:
            tys = [[ring.apply_linear(yj, twist) for yj in y] for y in ys]
            bucket = labels.setdefault(u * v, [])
            for x in xs:
                for ty in tys:
                    bucket.append(tuple(
                        ring.mul(xi, tj) if xi and tj else ring.zero
                        for xi in x for tj in ty))
    hint = None
    if m.char_hint is not None and n.char_hint is not None:
        hint = hecke_mult(m.char_hint, n.char_hint)
    return LabeledBimodule(
        m.real, degrees, tuple(acts),
        tuple((w, tuple(vs)) for w, vs in labels.items()),
        wordlen=m.wordlen + n.wordlen,
        char_hint=hint,
    )


def transport(m, omega):
    """F_omega * m * F_omega^-1 for a length-zero omega, without the two
    tensor products.

    With omega^-1 . x_g = sum_h c_gh x_h, the action of x_g becomes
    omega(sum_h c_gh act_h) = sum_h c_gh omega(act_h), with omega applied
    once to each act_h, entry by entry; each label w becomes
    omega w omega^-1 with its vectors v mapped to omega(v), and the character
    is relabelled the same way.  Degrees and word length are unchanged.
    """
    if omega.length != 0:
        raise NotLengthZero(f"omega has length {omega.length}")
    real = m.real
    ring = real.ring
    fmat = real.fin_action_matrix(omega)
    inv = omega.inverse()
    moved = [[[ring.apply_linear(x, fmat) for x in row] for row in a]
             for a in m.act]
    acts = []
    for g in range(real.dim):
        terms = [(c, moved[mu.index(1)])
                 for mu, c in real.act_poly(inv, ring.gen(g)).items()]
        acts.append([[ring.lincomb((c, a[k][i]) for c, a in terms)
                      for i in range(m.rank)] for k in range(m.rank)])
    labels = tuple(
        (omega * w * inv,
         tuple(tuple(ring.apply_linear(x, fmat) for x in v) for v in vecs))
        for w, vecs in m.labels)
    hint = None
    if m.char_hint is not None:
        hint = HeckeElt(real.datum,
                        {omega * z * inv: c
                         for z, c in m.char_hint.terms.items()})
    return LabeledBimodule(real, m.degrees, tuple(acts), labels,
                           wordlen=m.wordlen, char_hint=hint)


def bott_samelson(real, omega, word, shift=0):
    """F_omega * B_{s_1} * ... * B_{s_k} (shift)."""
    if omega.length != 0:
        raise NotLengthZero(f"omega has length {omega.length}")
    out = f_object(real, omega)
    for s in word:
        out = tensor(out, b_object(real, s))
    return out.shifted(shift)
