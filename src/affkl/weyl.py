"""Arithmetic of the extended affine Weyl group W = W_f x| X.

Elements are stored as pairs (fin, trans) representing w * t(lambda), where
fin is the action matrix of w on the character lattice X and trans = lambda.
The group law is (w, l) * (y, m) = (wy, y^{-1}(l) + m).

Elements are hash-consed.  One table per datum fingerprint lists W_f once
and numbers each finite part with a small int, which indexes its inverse,
its row of products with the other finite parts, the signs of its images of
the positive roots and its lexicographically least word.  The table also
holds the one element for each (finite part, translation): so
ExtWeylElt(datum, fin, trans) returns that element, equality is identity,
and the group law runs on ints.  What depends on one element alone is
memoised in its slots: its inverse, length, (omega, u, word) factorisation,
products s x and x s with the simple reflections, left descents and the walk
that strips its least left descents.
"""

import math
from dataclasses import dataclass
from operator import mul

from .errors import (
    ConjDataNotFound,
    DatumMismatch,
    DimensionMismatch,
    NotFinitary,
    NotInWaff,
    NotLengthZero,
    OmegaUnbounded,
)
from .matutil import identity, mat_mul, mat_vec
from .rootdata import components, simple_root_coeffs


class ExtWeylElt:
    """Element of W = W_f x| X over a fixed root datum, with fin_id the
    number of its finite part.  There is one object per element (see the
    module docstring), so equality is identity."""

    __slots__ = ("datum", "fin", "trans", "_t", "fin_id", "_inv", "_len",
                 "_factors", "_left", "_right", "_ldesc", "_walk", "_str")

    def __new__(cls, datum, fin, trans):
        t = _table(datum)
        return t.get(t.number(fin), _lattice_vector(datum, trans))

    def __mul__(self, other):
        t = self._t
        if other._t is not t:
            raise DatumMismatch("elements live over different data")
        row = t.prod[self.fin_id]
        g = other.fin_id
        k = row.get(g)
        if k is None:
            k = row[g] = t.number(mat_mul(self.fin, other.fin))
        lam = self.trans
        return t.get(k, tuple([sum(map(mul, r, lam)) + m
                               for r, m in zip(t.invmat[g], other.trans)]))

    def inverse(self):
        x = self._inv
        if x is None:
            t = self._t
            x = t.get(t.inv[self.fin_id],
                      tuple([-v for v in mat_vec(self.fin, self.trans)]))
            self._inv, x._inv = x, self
        return x

    def lmul(self, s):
        """s x for a simple reflection s, memoised on x and on s x."""
        if self._left is None:
            self._left = [None] * self._t.nrefl
        y = self._left[s.index]
        if y is None:
            y = self._left[s.index] = s.as_element * self
            if y._left is None:
                y._left = [None] * self._t.nrefl
            y._left[s.index] = self
        return y

    def rmul(self, s):
        """x s for a simple reflection s, memoised on x and on x s."""
        if self._right is None:
            self._right = [None] * self._t.nrefl
        y = self._right[s.index]
        if y is None:
            y = self._right[s.index] = self * s.as_element
            if y._right is None:
                y._right = [None] * self._t.nrefl
            y._right[s.index] = self
        return y

    def left_descents(self):
        """Whether l(s x) < l(x), for each s in S_aff by index: the right
        descents of x^{-1}."""
        if self._ldesc is None:
            inv = self.inverse()
            self._ldesc = tuple([
                is_right_descent(inv, s)
                for s in simple_reflections(self.datum, conj_search=False)])
        return self._ldesc

    def is_identity(self):
        return self is self._t.identity

    @property
    def length(self):
        if self._len is None:
            return length(self)
        return self._len

    def fin_word(self):
        """Lexicographically least reduced word of the finite part, in S_f."""
        return self._t.words[self.fin_id]

    def canonical_str(self):
        if self._str is None:
            word = ".".join(str(i) for i in self.fin_word()) or "e"
            self._str = word + ";" + ",".join(str(x) for x in self.trans)
            self._t.named[self._str] = self
        return self._str

    def sort_key(self):
        """(length, canonical string): the order of enumerations, table rows
        and the keys of saved cache documents."""
        return self.length, self.canonical_str()

    def __repr__(self):
        return f"ExtWeylElt({self.canonical_str()})"


# datum fingerprint -> _Table: data with one fingerprint share their elements
_TABLES = {}


def _table(datum):
    t = _TABLES.get(datum.fingerprint)
    if t is None:
        t = _TABLES[datum.fingerprint] = _Table(datum)
    return t


class _Table:
    """The numbered finite parts and the elements of one datum."""

    def __init__(self, datum):
        self.datum = datum
        pos = datum.positive_roots
        place = {alpha: k for k, (alpha, _) in enumerate(pos)}
        self.poscov = tuple(cov for _, cov in pos)
        # per simple reflection, by index: the coroot its descent test pairs
        # with, the place of its root among the positive roots, and whether
        # it is affine (see is_right_descent)
        self.tests = tuple(
            [(datum.coroot_of(a), place[a], False) for a in datum.simple_roots]
            + [(datum.coroot_of(beta), place[beta], True)
               for _, _, beta in components(datum)])
        self.nrefl = len(self.tests)
        self.refls = {}     # conj_search -> simple_reflections(datum, ...)
        # per finite part: its matrix, the number and the matrix of its
        # inverse, whether it keeps each positive root positive, its least
        # word, its products {number of y: number of w y} and its elements
        # {translation: element}
        self.mats, self.inv, self.invmat = [], [], []
        self.signs, self.words, self.prod, self.elts = [], [], [], []
        self.ids = {}
        # canonical_str() -> element, for every string made so far
        self.named = {}
        self._list_finite_group()
        self.identity = self.get(0, (0,) * datum.rank)

    def _list_finite_group(self):
        """Number W_f one length layer at a time from the identity.  For w
        of length l, the least i with l(s_i w) = l - 1 starts the least word
        of w, and w = s_i v has inverse v^{-1} s_i."""
        datum = self.datum
        gens = [reflection_matrix(datum, a) for a in datum.simple_roots]
        e = identity(datum.rank)
        lengths, words, inverses = {e: 0}, {e: ()}, {e: e}
        layer = [e]
        while layer:
            nxt = []
            for m in layer:
                for r in gens:
                    y = mat_mul(r, m)
                    if y not in lengths:
                        lengths[y] = lengths[m] + 1
                        nxt.append(y)
            for y in nxt:
                i, v = next((i, v) for i, v in enumerate(
                    mat_mul(r, y) for r in gens)
                    if lengths.get(v) == lengths[y] - 1)
                words[y] = (i,) + words[v]
                inverses[y] = mat_mul(inverses[v], gens[i])
            layer = nxt
        for m in lengths:
            self._add(m, tuple(datum.is_positive_root(mat_vec(m, alpha))
                               for alpha, _ in datum.positive_roots), words[m])
        self.invmat = [inverses[m] for m in self.mats]
        self.inv = [self.ids[m] for m in self.invmat]

    def _add(self, mat, signs, word):
        f = self.ids[mat] = len(self.mats)
        self.mats.append(mat)
        self.signs.append(signs)
        self.words.append(word)
        self.prod.append({})
        self.elts.append({})
        return f

    def number(self, fin):
        """The number of a finite part.  A matrix outside W_f gets one too,
        so that its elements exist and compare unequal to the others, but
        reading its inverse, signs or word raises NotInWaff."""
        f = self.ids.get(fin)
        if f is None:
            outside = _OutsideWf(fin)
            f = self._add(fin, outside, outside)
            self.inv.append(outside)
            self.invmat.append(outside)
        return f

    def get(self, f, trans):
        """The element with finite part number f and translation trans."""
        bucket = self.elts[f]
        x = bucket.get(trans)
        if x is None:
            x = bucket[trans] = object.__new__(ExtWeylElt)
            x.datum, x.fin, x.trans, x._t, x.fin_id = (
                self.datum, self.mats[f], trans, self, f)
            x._inv = x._len = x._factors = x._str = None
            x._left = x._right = x._ldesc = x._walk = None
        return x


class _OutsideWf:
    """The inverse, signs and word of a matrix outside W_f: any use raises."""

    def __init__(self, fin):
        self.fin = fin

    def _raise(self, *args):
        raise NotInWaff(f"{self.fin} is not the matrix of an element of W_f")

    __getitem__ = __iter__ = __index__ = _raise


def wid(datum):
    """The identity element."""
    return _table(datum).identity


def element_named(datum, s):
    """The element whose canonical_str() is s, once that string has been
    made, else None.  Only canonical spellings are kept, so any other
    spelling of an element misses."""
    return _table(datum).named.get(s)


def translation(datum, lam):
    return _table(datum).get(0, _lattice_vector(datum, lam))


def _lattice_vector(datum, lam):
    lam = tuple(lam)
    if len(lam) != datum.rank:
        raise DimensionMismatch(
            f"expected a vector of length {datum.rank}, got {len(lam)}")
    return lam


def reflection_matrix(datum, root):
    """Action of s_root on X: lam -> lam - <lam, root^vee> root."""
    cov = datum.coroot_of(root)
    n = datum.rank
    return tuple(
        tuple((1 if i == j else 0) - root[i] * cov[j] for j in range(n))
        for i in range(n)
    )


# -- length ----------------------------------------------------------------


def length(x):
    """Length of w * t(lambda), summed over the positive roots alpha:
    |<lambda, alpha^vee>| if w(alpha) > 0, else |<lambda, alpha^vee> + 1|."""
    if x._len is None:
        t = x._t
        lam = x.trans
        total = 0
        for cov, positive in zip(t.poscov, t.signs[x.fin_id]):
            n = sum(map(mul, lam, cov))
            total += abs(n) if positive else abs(n + 1)
        x._len = total
    return x._len


def is_right_descent(x, s):
    """Whether l(x s) < l(x), read off one root pairing without forming x s.

    For x = w t(lam) (Iwahori-Matsumoto): a finite s_i is a right descent
    iff n = <lam, alpha_i^vee> > 0, or n = 0 and w(alpha_i) < 0; the affine
    reflection of a component with maximal short root beta iff
    n = <lam, beta^vee> < -1, or n = -1 and w(beta) > 0.
    """
    t = x._t
    cov, k, affine = t.tests[s.index]
    n = sum(map(mul, x.trans, cov))
    if affine:
        return n < -1 if n != -1 else t.signs[x.fin_id][k]
    return n > 0 if n else not t.signs[x.fin_id][k]


# -- simple reflections ----------------------------------------------------


@dataclass(frozen=True)
class SimpleReflection:
    index: int                  # position in S_aff
    kind: str                   # "finite" | "affine"
    as_element: ExtWeylElt
    root_index: int = None      # finite kind: which simple root
    component: int = None       # affine kind: which component
    beta: tuple = None          # affine kind: the maximal short root used
    conj_data: tuple = None     # affine kind: (s_prime, w) witnesses

    def __repr__(self):
        return f"s{self.index}"


def simple_reflections(datum, conj_search=True):
    """S_f followed by one affine reflection per irreducible component."""
    memo = _table(datum).refls
    if conj_search in memo:
        return memo[conj_search]
    out = []
    for i, a in enumerate(datum.simple_roots):
        elt = ExtWeylElt(datum, reflection_matrix(datum, a), (0,) * datum.rank)
        out.append(SimpleReflection(index=len(out), kind="finite",
                                    as_element=elt, root_index=i))
    for ci, (_, _, beta) in enumerate(components(datum)):
        # t(beta) s_beta = (s_beta, -beta)
        mat = reflection_matrix(datum, beta)
        elt = ExtWeylElt(datum, mat, tuple(-x for x in beta))
        assert elt.length == 1, "affine reflection must have length 1"
        out.append(SimpleReflection(index=len(out), kind="affine",
                                    as_element=elt, component=ci, beta=beta))
    out = tuple(out)
    if conj_search:
        out = tuple(
            s if s.kind == "finite" else _with_conj_data(datum, out, s)
            for s in out
        )
    memo[conj_search] = out
    return out


def _coxeter_number_bound(datum):
    return 2 * max(2, len(datum.positive_roots) * 2 // max(1, datum.nsimple))


def _with_conj_data(datum, refls, s):
    """Fixed witnesses (s', w) with s = w s' w^{-1} and l(ws') = l(w) + 1."""
    bound = _coxeter_number_bound(datum)
    finite = [r for r in refls if r.kind == "finite"]
    omegas = omega_elements(datum, bound=2)
    candidates = []
    for om in omegas:
        for u in enumerate_elements(datum, bound, sector="waff_only"):
            candidates.append(om * u)
    candidates.sort(key=ExtWeylElt.sort_key)
    target = s.as_element
    for w in candidates:
        winv = w.inverse()
        for sp in finite:
            if is_right_descent(w, sp):
                continue
            if w * sp.as_element * winv == target:
                return SimpleReflection(
                    index=s.index, kind="affine", as_element=s.as_element,
                    component=s.component, beta=s.beta,
                    conj_data=(sp, w),
                )
    raise ConjDataNotFound(
        f"no (s', w) witness for affine reflection {s.index} within bound {bound}")


# -- omega -----------------------------------------------------------------


def _factor(x):
    """(omega, u, word) with x = omega * u, l(omega) = 0 and u = s_word,
    memoised on x.

    One right-descent walk, least index first; the right descents of
    omega * u are those of u, so word is the reduced word of u.
    """
    if x._factors is not None:
        return x._factors
    refls = simple_reflections(x.datum, conj_search=False)
    om = x
    suffix = []
    for _ in range(x.length):
        s = next((s for s in refls if is_right_descent(om, s)), None)
        if s is None:
            raise NotInWaff("element of positive length has no right descent")
        om = om.rmul(s)
        suffix.append(s)
    om._len = 0
    u = x._t.identity
    for s in suffix:
        u = u.lmul(s)
    u._len = len(suffix)
    assert om * u is x
    x._factors = (om, u, tuple(s.index for s in reversed(suffix)))
    return x._factors


def omega_factorize(x):
    """Unique factorization x = omega * u with l(omega) = 0 and u in W_aff."""
    om, u, _ = _factor(x)
    return om, u


def in_waff(x):
    """Membership in W_aff = W_f x| ZR (translation part in the root lattice)."""
    return _factor(x)[0].is_identity()


def conj_simple(omega, s):
    """The simple reflection omega s omega^{-1}; requires l(omega) = 0."""
    if omega.length != 0:
        raise NotLengthZero(f"element has length {omega.length}")
    target = omega * s.as_element * omega.inverse()
    for r in simple_reflections(omega.datum, conj_search=False):
        if r.as_element == target:
            return r
    raise NotInWaff("conjugate of a simple reflection is not simple")


def omega_is_finite(datum):
    """Omega ~ X/ZR is finite iff the simple roots span X over Q."""
    return datum.nsimple == datum.rank


def omega_elements(datum, bound=1):
    """Length-zero elements.

    For finite Omega this is the whole subgroup (bound ignored); otherwise all
    products of coset generators with exponents in [-bound, bound].
    """
    gens = _quotient_generators(datum)
    elts = {wid(datum)}
    for lam, order in gens:
        new = set()
        rng = range(order) if order else range(-bound, bound + 1)
        base = omega_factorize(translation(datum, lam))[0]
        for k in rng:
            cur = wid(datum)
            step = base if k >= 0 else base.inverse()
            for _ in range(abs(k)):
                cur = cur * step
            for e in elts:
                new.add(e * cur)
        elts = new
    assert all(e.length == 0 for e in elts)
    if omega_is_finite(datum):
        # finite Omega: close under multiplication to be safe
        frontier = set(elts)
        while frontier:
            nxt = set()
            for a in frontier:
                for lam, _ in gens:
                    b = a * omega_factorize(translation(datum, lam))[0]
                    if b not in elts:
                        elts.add(b)
                        nxt.add(b)
            frontier = nxt
    return sorted(elts, key=ExtWeylElt.sort_key)


def _quotient_generators(datum):
    """Generators of X/ZR as (lattice vector, order) with order=0 for free.

    The standard basis vectors generate X; the order of [lam] is the least
    k >= 1 with k*lam in ZR, the lcm of the denominators of lam's simple-root
    coefficients.  Vectors outside QR, or of order above 60, count as free;
    vectors of order 1 are skipped.
    """
    gens = []
    cap = 60
    for i in range(datum.rank):
        lam = tuple(1 if j == i else 0 for j in range(datum.rank))
        sol = simple_root_coeffs(datum, lam)
        order = 0 if sol is None else math.lcm(*(c.denominator for c in sol))
        if order > cap:
            order = 0
        if order == 1:
            continue
        gens.append((lam, order))
    return gens


# -- words, Bruhat order, enumeration ---------------------------------------


def reduced_word(u):
    """Reduced word of u in S_aff indices, least-index right descent first.

    The returned list (i_1, ..., i_k) satisfies u = s_{i_1} * ... * s_{i_k}.
    """
    om, _, word = _factor(u)
    if not om.is_identity():
        raise NotInWaff(f"{u} is not in the affine Weyl group")
    return word


def element_from_word(datum, word, omega=None):
    refls = simple_reflections(datum, conj_search=False)
    x = omega if omega is not None else wid(datum)
    for i in word:
        x = x.rmul(refls[i])
    return x


def bruhat_leq(x, y):
    """Closure order: equal Omega-parts and Coxeter Bruhat order on W_aff."""
    if x._t is not y._t:
        raise DatumMismatch("elements live over different data")
    ox, ux = omega_factorize(x)
    oy, uy = omega_factorize(y)
    if ox != oy:
        return False
    return _bruhat_waff(ux, uy)


def _bruhat_waff(x, y):
    # Strip the least left descent s of y, and of x when it is one; x <= y is
    # unchanged.  The walk down from y is memoised on y for every x.
    lx, ly = x.length, y.length
    walk = _strip_walk(y)
    k = 0
    while lx < ly:
        s, y = walk[k]
        k += 1
        ly -= 1
        if x.left_descents()[s.index]:
            x = x.lmul(s)
            lx -= 1
    return x is y


def _strip_walk(y):
    """The pairs (s, y') down from y to length 0, each y' = s y'' stripping
    the least left descent s of the element y'' before it; memoised on y."""
    if y._walk is None:
        refls = simple_reflections(y.datum, conj_search=False)
        walk, cur = [], y
        for _ in range(y.length):
            s = refls[cur.left_descents().index(True)]
            cur = cur.lmul(s)
            walk.append((s, cur))
        y._walk = tuple(walk)
    return y._walk


def enumerate_elements(datum, max_len, sector="waff_only", omegas=None):
    """All elements of length <= max_len.

    sector="waff_only" walks the Coxeter graph from the identity.  For
    sector="all" the W_aff part is multiplied on the left by the given
    length-zero elements; with infinite Omega the caller must pass omegas.
    """
    if max_len < 0:
        return []
    refls = simple_reflections(datum, conj_search=False)
    layer = {wid(datum)}
    seen = {wid(datum)}
    for step in range(1, max_len + 1):
        nxt = set()
        for x in layer:
            for s in refls:
                if not is_right_descent(x, s):
                    y = x.rmul(s)
                    y._len = step
                    nxt.add(y)
        seen |= nxt
        layer = nxt
    waff = sorted(seen, key=ExtWeylElt.sort_key)
    if sector == "waff_only":
        return waff
    if omegas is None:
        if not omega_is_finite(datum):
            raise OmegaUnbounded(
                "infinite Omega: pass omegas= for sector='all'")
        omegas = omega_elements(datum)
    out = [om * u for om in omegas for u in waff]
    return sorted(out, key=ExtWeylElt.sort_key)


# -- finitary subsets and double cosets --------------------------------------


def finitary_data(K, datum=None):
    """All elements of W_K and its longest element; K a set of reflections."""
    K = list(K)
    if datum is None:
        if not K:
            raise ValueError("pass datum= when K is empty")
        datum = K[0].as_element.datum
    return finitary_data_over(datum, K)


def finitary_data_over(datum, K):
    elements = {wid(datum)}
    frontier = {wid(datum)}
    k = len(K)
    guard = (2 ** k) * math.factorial(k + 1)
    while frontier:
        nxt = set()
        for x in frontier:
            for s in K:
                y = x.rmul(s)
                if y not in elements:
                    elements.add(y)
                    nxt.add(y)
                    if len(elements) > guard:
                        raise NotFinitary(
                            f"subgroup exceeded {guard} elements")
        frontier = nxt
    longest = max(elements, key=ExtWeylElt.sort_key)
    top = [e for e in elements if e.length == longest.length]
    if len(top) != 1:
        raise NotFinitary("no unique longest element; subgroup not parabolic?")
    ordered = sorted(elements, key=ExtWeylElt.sort_key)
    return ordered, longest


def longest_element(datum, K):
    _, wk = finitary_data_over(datum, K)
    return wk


def is_min_double_coset_rep(L, K, w, wl=None, wk=None):
    """Length additivity l(w_L w w_K) = l(w_L) + l(w) + l(w_K)."""
    datum = w.datum
    if wl is None:
        wl = longest_element(datum, L)
    if wk is None:
        wk = longest_element(datum, K)
    return (wl * w * wk).length == wl.length + w.length + wk.length


def min_double_coset_reps(L, K, max_len, datum=None, sector="waff_only", omegas=None):
    """All length-additive minimal representatives with l(w) <= max_len."""
    if datum is None:
        pool = list(L) + list(K)
        if not pool:
            raise ValueError("pass datum= when L and K are empty")
        datum = pool[0].as_element.datum
    wl = longest_element(datum, L)
    wk = longest_element(datum, K)
    return [
        w for w in enumerate_elements(datum, max_len, sector=sector, omegas=omegas)
        if is_min_double_coset_rep(L, K, w, wl=wl, wk=wk)
    ]
