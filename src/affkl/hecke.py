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


def _mult_by_simple(a, s):
    """a * H_s for a simple reflection s."""
    out = {}
    for x, p in a.terms.items():
        xs = x.rmul(s)
        out[xs] = out.get(xs, ZERO) + p
        if is_right_descent(x, s):
            out[x] = out.get(x, ZERO) + p.shift(-1) - p.shift(1)
    return HeckeElt(a.datum, out)


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
    out = {}
    for w, p in b.terms.items():
        for x, q in _mult_by_elt(a, w).terms.items():
            out[x] = out.get(x, ZERO) + q * p
    return HeckeElt(a.datum, out)


def omega_times(om, a):
    """H_omega * a for length-zero omega: the relabel H_x -> H_{omega x}."""
    return HeckeElt(a.datum, {om * x: p for x, p in a.terms.items()})


def _bs_times(s, b):
    """b_s * b = (H_s + v) * b in one pass over the terms of b.

    H_s H_x = H_{sx}, plus (v^{-1} - v) H_x when s is a left descent of x;
    with the v H_x of b_s, x gets v^{-1} p on a left descent and v p off one.
    """
    out = {}
    for x, p in b.terms.items():
        sx = x.lmul(s)
        out[sx] = out.get(sx, ZERO) + p
        q = p.shift(-1 if x.left_descents()[s.index] else 1)
        out[x] = out.get(x, ZERO) + q
    return HeckeElt(b.datum, out)


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
    word = reduced_word(u)
    s = refls[word[0]]
    uprime = u.lmul(s)
    b_uprime = canonical_basis(uprime)
    out = _bs_times(s, b_uprime)
    # subtract mu(z, u') b_z for z with sz < z in place, dropping zero terms
    for z in list(out.terms):
        if z == u:
            continue
        mu = b_uprime.coeff(z).coeff(1)
        if mu and z.left_descents()[s.index]:
            for y, p in canonical_basis(z).terms.items():
                q = out.terms.get(y, ZERO) - p * mu
                if q:
                    out.terms[y] = q
                else:
                    out.terms.pop(y, None)
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
