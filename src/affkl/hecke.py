"""Hecke algebra of (W_aff, S_aff) extended by Omega, over Z[v, v^{-1}].

Conventions: quadratic relation (H_s - v^{-1})(H_s + v) = 0, so that
b_s = H_s + v is bar-invariant and h_{e,s} = v.  For length-zero omega,
H_omega * H_x = H_{omega x}.
"""

from .errors import DatumMismatch
from .laurent import LaurentPoly, ONE, ZERO
from .weyl import (
    ExtWeylElt,
    bruhat_leq,
    is_right_descent,
    omega_factorize,
    reduced_word,
    simple_reflections,
    wid,
)

_V_MINUS_VINV = LaurentPoly({1: 1, -1: -1})


class HeckeElt:
    """Finitely supported map W -> Z[v, v^{-1}]."""

    __slots__ = ("datum", "terms")

    def __init__(self, datum, terms=None):
        self.datum = datum
        self.terms = {}
        if terms:
            for w, p in terms.items():
                if p:
                    self.terms[w] = p

    @classmethod
    def _of(cls, datum, terms):
        """Trusted constructor: terms maps elements to nonzero LaurentPolys."""
        out = object.__new__(cls)
        out.datum = datum
        out.terms = terms
        return out

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElt)
            and self.datum.fingerprint == other.datum.fingerprint
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, w):
        return self.terms.get(w, ZERO)

    def support(self):
        return set(self.terms)

    def __add__(self, other):
        _check(self, other)
        out = dict(self.terms)
        for w, p in other.terms.items():
            out[w] = out.get(w, ZERO) + p
        return HeckeElt(self.datum, out)

    def __sub__(self, other):
        _check(self, other)
        out = dict(self.terms)
        for w, p in other.terms.items():
            out[w] = out.get(w, ZERO) - p
        return HeckeElt(self.datum, out)

    def __neg__(self):
        return HeckeElt(self.datum, {w: -p for w, p in self.terms.items()})

    def scale(self, poly):
        if isinstance(poly, int):
            poly = LaurentPoly.const(poly)
        return HeckeElt(self.datum, {w: p * poly for w, p in self.terms.items()})

    def __mul__(self, other):
        return mult(self, other)

    def to_json(self):
        return {w.canonical_str(): self.terms[w].to_json()
                for w in sorted(self.terms, key=ExtWeylElt.sort_key)}

    def __repr__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda w: (-w.length, w.canonical_str()))
        parts = []
        for w in keys:
            p = self.terms[w]
            label = "H[" + _display(w) + "]"
            if p == ONE:
                parts.append(label)
            elif len(p.coeffs) == 1:
                parts.append(f"{p}*{label}")
            else:
                parts.append(f"({p})*{label}")
        return " + ".join(parts)


def _display(w):
    om, u = omega_factorize(w)
    word = " ".join(f"s{i}" for i in reduced_word(u)) or "e"
    if om.is_identity():
        return word
    return f"omega:{om.canonical_str()}" + (f" {word}" if word != "e" else "")


def _check(a, b):
    if a.datum.fingerprint != b.datum.fingerprint:
        raise DatumMismatch("Hecke elements over different data")


def unit(datum, w=None, poly=None):
    if w is None:
        w = wid(datum)
    return HeckeElt(datum, {w: poly if poly is not None else ONE})


def _add(acc, x, c, k=0, m=1):
    """acc[x] += m v^k c on an accumulator {element: {exponent: int}}.

    The accumulator owns its dicts: the first write to x copies c, so c may
    be the coefficient dict of a cached element."""
    d = acc.get(x)
    if d is None:
        acc[x] = {e + k: m * a for e, a in c.items()}
    else:
        for e, a in c.items():
            e += k
            d[e] = d.get(e, 0) + m * a


def _wrap(datum, acc):
    """The HeckeElt of an accumulator, dropping zero coefficients and zero
    terms; it takes over the accumulator's dicts."""
    terms = {}
    for x, c in acc.items():
        if not all(c.values()):
            c = {e: a for e, a in c.items() if a}
            if not c:
                continue
        terms[x] = LaurentPoly._of(c)
    return HeckeElt._of(datum, terms)


def _mult_by_simple(a, s):
    """a * H_s for a simple reflection s."""
    acc = {}
    for x, p in a.terms.items():
        c = p.coeffs
        _add(acc, x.rmul(s), c)
        if is_right_descent(x, s):
            _add(acc, x, c, -1)
            _add(acc, x, c, 1, -1)
    return _wrap(a.datum, acc)


def _mult_by_elt(a, w):
    """a * H_w via a reduced word of the W_aff part of w."""
    om, u = omega_factorize(w)
    refls = simple_reflections(a.datum, conj_search=False)
    # a * H_{omega u} = a * H_omega * H_{s_1} ... H_{s_k}
    out = a if om.is_identity() else HeckeElt(
        a.datum, {x * om: p for x, p in a.terms.items()})
    for i in reduced_word(u):
        out = _mult_by_simple(out, refls[i])
    return out


def mult(a, b):
    """Product in the Hecke algebra."""
    _check(a, b)
    acc = {}
    for w, p in b.terms.items():
        q = p.coeffs
        for x, r in _mult_by_elt(a, w).terms.items():
            d = acc.setdefault(x, {})
            for e1, c1 in r.coeffs.items():
                for e2, c2 in q.items():
                    d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
    return _wrap(a.datum, acc)


def omega_times(om, a):
    """H_omega * a for length-zero omega: the relabel H_x -> H_{omega x}."""
    return HeckeElt._of(a.datum, {om * x: p for x, p in a.terms.items()})


def _bs_times(s, b):
    """b_s * b = (H_s + v) * b in one pass over the terms of b, as an
    accumulator (see _add).

    H_s H_x = H_{sx}, plus (v^{-1} - v) H_x when s is a left descent of x;
    with the v H_x of b_s, x gets v^{-1} p_x + p_{sx} on a left descent and
    v p_x + p_{sx} off one, and an sx outside the support of b gets p_x.
    """
    terms = b.terms
    acc = {}
    i = s.index
    for x, p in terms.items():
        k = -1 if x.left_descents()[i] else 1
        c = {e + k: a for e, a in p.coeffs.items()}
        sx = x.lmul(s)
        q = terms.get(sx)
        if q is None:
            acc[sx] = dict(p.coeffs)
        else:
            for e, a in q.coeffs.items():
                c[e] = c.get(e, 0) + a
        acc[x] = c
    return acc


def bar(a):
    """Bar involution: v -> v^{-1}, H_w -> (H_{w^{-1}})^{-1}."""
    refls = simple_reflections(a.datum, conj_search=False)
    total = HeckeElt(a.datum)
    for w, p in a.terms.items():
        om, u = omega_factorize(w)
        # bar(H_w) = H_omega * (H_s + (v - v^{-1}))...: product of bars
        cur = unit(a.datum, om)
        for i in reduced_word(u):
            term = _mult_by_simple(cur, refls[i])
            cur = term + cur.scale(_V_MINUS_VINV)
        total = total + cur.scale(p.bar())
    return total


# -- canonical basis --------------------------------------------------------

_KL_CACHE = {}


def canonical_basis(w):
    """b_w = sum_y h_{y,w} H_y, bar-invariant with h in vZ[v] below w."""
    if w in _KL_CACHE:
        return _KL_CACHE[w]
    datum = w.datum
    om, u = omega_factorize(w)
    if not om.is_identity():
        out = omega_times(om, canonical_basis(u))
        _KL_CACHE[w] = out
        return out
    if u.length == 0:
        out = unit(datum)
        _KL_CACHE[w] = out
        return out
    refls = simple_reflections(datum, conj_search=False)
    s = refls[reduced_word(u)[0]]
    b_uprime = canonical_basis(u.lmul(s))
    acc = _bs_times(s, b_uprime)
    # subtract mu(z, u') b_z for z with sz < z, mu the v-coefficient of
    # h_{z,u'}: nonzero only on the support of b_{u'}
    for z, p in b_uprime.terms.items():
        mu = p.coeffs.get(1)
        if mu and z.left_descents()[s.index]:
            for y, q in canonical_basis(z).terms.items():
                _add(acc, y, q.coeffs, 0, -mu)
    out = _wrap(datum, acc)
    _KL_CACHE[w] = out
    return out


def kl_poly(y, w):
    """h_{y,w}: the coefficient of H_y in b_w."""
    if not bruhat_leq(y, w):
        return LaurentPoly()
    return canonical_basis(w).coeff(y)


def pairing(a, b):
    """Sum of products of standard-basis coefficients."""
    _check(a, b)
    out = LaurentPoly()
    for w, p in a.terms.items():
        q = b.terms.get(w)
        if q:
            out = out + p * q
    return out


def signed_coset_sum(table, y, K):
    """Sum over x in W_K of (-1)^{l(x)} table(y x); missing keys read 0.

    K is a finitary set of simple reflections; a pre-enumerated list of
    group elements is also accepted.
    """
    from .weyl import finitary_data_over

    K = list(K)
    if all(isinstance(x, ExtWeylElt) for x in K) and K:
        elements = K
    else:
        elements, _ = finitary_data_over(y.datum, K)
    return signed_sum(table, signed_coset(y, elements))


def signed_coset(y, elements):
    """The pairs (y x, (-1)^{l(x)}) for x in a pre-enumerated W_K."""
    return [(y * x, -1 if x.length % 2 else 1) for x in elements]


def signed_sum(values, coset):
    """Sum of sign * values[z] over a signed coset; missing keys read 0."""
    return sum(sign * values.get(z, 0) for z, sign in coset)
