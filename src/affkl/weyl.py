"""Arithmetic of the extended affine Weyl group W = W_f x| X.

Elements are stored as pairs (fin, trans) representing w * t(lambda), where
fin is the action matrix of w on the character lattice X and trans = lambda.
The group law is (w, l) * (y, m) = (wy, y^{-1}(l) + m).
"""

import math
from dataclasses import dataclass

from .errors import (
    ConjDataNotFound,
    DatumMismatch,
    NotFinitary,
    NotInWaff,
    NotLengthZero,
    OmegaUnbounded,
)
from .matutil import identity, mat_inv_int, mat_mul, mat_vec, smith_normal_form
from .rootdata import pairing, simple_root_coeffs


class ExtWeylElt:
    """Immutable element of W = W_f x| X over a fixed root datum."""

    __slots__ = ("datum", "fin", "trans", "_hash", "_len", "_word")

    def __init__(self, datum, fin, trans):
        self.datum = datum
        self.fin = fin
        self.trans = tuple(trans)
        self._hash = hash((datum.fingerprint, fin, self.trans))
        self._len = None
        self._word = None

    def __eq__(self, other):
        return (
            isinstance(other, ExtWeylElt)
            and self.datum.fingerprint == other.datum.fingerprint
            and self.fin == other.fin
            and self.trans == other.trans
        )

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        if self.datum.fingerprint != other.datum.fingerprint:
            raise DatumMismatch("elements live over different data")
        yinv = _fin_inverse(other.fin)
        return ExtWeylElt(
            self.datum,
            mat_mul(self.fin, other.fin),
            tuple(a + b for a, b in zip(mat_vec(yinv, self.trans), other.trans)),
        )

    def inverse(self):
        winv = _fin_inverse(self.fin)
        return ExtWeylElt(
            self.datum, winv,
            tuple(-x for x in mat_vec(self.fin, self.trans)),
        )

    def is_identity(self):
        return self.trans == (0,) * self.datum.rank and self.fin == identity(self.datum.rank)

    @property
    def length(self):
        if self._len is None:
            self._len = length(self)
        return self._len

    def fin_word(self):
        """Lexicographically least reduced word of the finite part, in S_f."""
        if self._word is None:
            self._word = _lex_least_word(self.datum, self.fin)
        return self._word

    def canonical_str(self):
        word = ".".join(str(i) for i in self.fin_word()) or "e"
        return word + ";" + ",".join(str(x) for x in self.trans)

    def to_json(self):
        return {"fin_word": list(self.fin_word()), "trans": list(self.trans)}

    def __repr__(self):
        return f"ExtWeylElt({self.canonical_str()})"


_INV_CACHE = {}


def _fin_inverse(mat):
    # Weyl group matrices have finite order; inverse is an integer matrix.
    inv = _INV_CACHE.get(mat)
    if inv is None:
        inv = mat_inv_int(mat)
        _INV_CACHE[mat] = inv
        _INV_CACHE[inv] = mat
    return inv


def wid(datum):
    """The identity element."""
    return ExtWeylElt(datum, identity(datum.rank), (0,) * datum.rank)


def translation(datum, lam):
    return ExtWeylElt(datum, identity(datum.rank), tuple(lam))


def reflection_matrix(datum, root):
    """Action of s_root on X: lam -> lam - <lam, root^vee> root."""
    cov = datum.coroot_of(root)
    n = datum.rank
    return tuple(
        tuple((1 if i == j else 0) - root[i] * cov[j] for j in range(n))
        for i in range(n)
    )


def from_json(datum, obj):
    x = wid(datum)
    refls = simple_reflections(datum)
    for i in obj["fin_word"]:
        x = x * refls[i].as_element
    return x * translation(datum, obj["trans"])


def _lex_least_word(datum, fin):
    word = []
    mat = fin
    simples = datum.simple_roots
    guard = 0
    while mat != identity(datum.rank):
        guard += 1
        if guard > 10000:
            raise NotInWaff("finite part does not terminate; not a Weyl matrix?")
        # left descent: smallest i with w^{-1}(alpha_i) negative
        inv = _fin_inverse(mat)
        for i, a in enumerate(simples):
            img = mat_vec(inv, a)
            if not datum.is_positive_root(tuple(img)):
                word.append(i)
                mat = mat_mul(reflection_matrix(datum, a), mat)
                break
        else:
            raise NotInWaff("matrix has no descent but is not the identity")
    return tuple(word)


# -- length ----------------------------------------------------------------


def length(x):
    """Length of w * t(lambda), summed over positive roots."""
    total = 0
    for alpha, cov in x.datum.positive_roots:
        n = pairing(x.datum, x.trans, cov)
        img = tuple(mat_vec(x.fin, alpha))
        if x.datum.is_positive_root(img):
            total += abs(n)
        else:
            total += abs(n + 1)
    return total


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


_SREF_CACHE = {}


def simple_reflections(datum, conj_search=True):
    """S_f followed by one affine reflection per irreducible component."""
    key = (datum.fingerprint, conj_search)
    if key in _SREF_CACHE:
        return _SREF_CACHE[key]
    from .rootdata import components

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
    _SREF_CACHE[key] = out
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
    candidates.sort(key=lambda w: (w.length, w.canonical_str()))
    target = s.as_element
    for w in candidates:
        winv = w.inverse()
        for sp in finite:
            if w.length + 1 != (w * sp.as_element).length:
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


def omega_factorize(x):
    """Unique factorization x = omega * u with l(omega) = 0 and u in W_aff."""
    datum = x.datum
    refls = simple_reflections(datum, conj_search=False)
    om = x
    suffix = []
    while om.length > 0:
        for s in refls:
            if (om * s.as_element).length < om.length:
                om = om * s.as_element
                suffix.append(s)
                break
        else:
            raise NotInWaff("element of positive length has no right descent")
    u = wid(datum)
    for s in suffix:
        u = s.as_element * u
    assert (om * u) == x
    return om, u


def in_waff(x):
    """Membership in W_aff = W_f x| ZR (translation part in the root lattice)."""
    om, _ = omega_factorize(x)
    return om.is_identity()


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
    mat = tuple(tuple(r[i] for r in datum.simple_roots) for i in range(datum.rank))
    factors = smith_normal_form(mat)
    n_free = datum.rank - len(factors)
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
    if n_free == 0:
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
    return sorted(elts, key=lambda e: e.canonical_str())


def _quotient_generators(datum):
    """Generators of X/ZR as (lattice vector, order) with order=0 for free."""
    # columns of R = simple roots; X = Z^rank.  Compute SNF with transforms:
    # U A V = D, then X/col(A) is generated by the columns of U^{-1} with
    # orders the diagonal entries.  We avoid carrying transforms by testing
    # candidate standard vectors directly instead (rank <= 4 here).
    gens = []
    seen_group = {(0,) * datum.rank}
    # order of [lam]: least k >= 1 with k*lam in ZR, or 0 if none <= cap
    cap = 60
    for i in range(datum.rank):
        lam = tuple(1 if j == i else 0 for j in range(datum.rank))
        order = 0
        for k in range(1, cap + 1):
            if _in_root_lattice(datum, tuple(k * x for x in lam)):
                order = k
                break
        if order == 1:
            continue
        gens.append((lam, order))
    return gens


def _in_root_lattice(datum, lam):
    sol = simple_root_coeffs(datum, lam)
    return sol is not None and all(c.denominator == 1 for c in sol)


# -- words, Bruhat order, enumeration ---------------------------------------


def reduced_word(u):
    """Reduced word of u in S_aff indices, least-index right descent first.

    The returned list (i_1, ..., i_k) satisfies u = s_{i_1} * ... * s_{i_k}.
    """
    if not in_waff(u):
        raise NotInWaff(f"{u} is not in the affine Weyl group")
    refls = simple_reflections(u.datum, conj_search=False)
    word = []
    cur = u
    while cur.length > 0:
        for s in refls:
            if (cur * s.as_element).length < cur.length:
                word.append(s.index)
                cur = cur * s.as_element
                break
        else:
            raise NotInWaff("stuck: no right descent")
    word.reverse()
    return tuple(word)


def element_from_word(datum, word, omega=None):
    refls = simple_reflections(datum, conj_search=False)
    x = omega if omega is not None else wid(datum)
    for i in word:
        x = x * refls[i].as_element
    return x


def bruhat_leq(x, y):
    """Closure order: equal Omega-parts and Coxeter Bruhat order on W_aff."""
    if x.datum.fingerprint != y.datum.fingerprint:
        raise DatumMismatch("elements live over different data")
    ox, ux = omega_factorize(x)
    oy, uy = omega_factorize(y)
    if ox != oy:
        return False
    return _bruhat_waff(ux, uy)


def _bruhat_waff(x, y):
    if x.length > y.length:
        return False
    if x.length == y.length:
        return x == y
    refls = simple_reflections(x.datum, conj_search=False)
    s = next(s for s in refls if (s.as_element * y).length < y.length)
    sy = s.as_element * y
    sx = s.as_element * x
    if sx.length < x.length:
        return _bruhat_waff(sx, sy)
    return _bruhat_waff(x, sy)


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
    for _ in range(max_len):
        nxt = set()
        for x in layer:
            for s in refls:
                y = x * s.as_element
                if y not in seen and y.length == x.length + 1:
                    nxt.add(y)
        seen |= nxt
        layer = nxt
    waff = sorted(seen, key=lambda e: (e.length, e.canonical_str()))
    if sector == "waff_only":
        return waff
    if omegas is None:
        if not omega_is_finite(datum):
            raise OmegaUnbounded(
                "infinite Omega: pass omegas= for sector='all'")
        omegas = omega_elements(datum)
    out = [om * u for om in omegas for u in waff]
    return sorted(out, key=lambda e: (e.length, e.canonical_str()))


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
                y = x * s.as_element
                if y not in elements:
                    elements.add(y)
                    nxt.add(y)
                    if len(elements) > guard:
                        raise NotFinitary(
                            f"subgroup exceeded {guard} elements")
        frontier = nxt
    longest = max(elements, key=lambda e: (e.length, e.canonical_str()))
    top = [e for e in elements if e.length == longest.length]
    if len(top) != 1:
        raise NotFinitary("no unique longest element; subgroup not parabolic?")
    ordered = sorted(elements, key=lambda e: (e.length, e.canonical_str()))
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
