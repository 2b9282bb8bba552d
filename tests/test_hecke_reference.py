"""The Hecke kernels against a reference copy of the LaurentPoly recursion.

`canonical_basis` and `mult` accumulate plain {exponent: int} dicts and wrap
each result once.  The reference below is the earlier per-term version: it
builds every intermediate polynomial through the public LaurentPoly
constructor and every element through the public HeckeElt constructor,
both of which drop zeros.
"""

import random

import pytest

from affkl import build_root_datum
from affkl.hecke import (
    _KL_CACHE,
    HeckeElt,
    bar,
    canonical_basis,
    mult,
    pairing,
    unit,
)
from affkl.laurent import LaurentPoly, ONE, V
from affkl.weyl import (
    enumerate_elements,
    is_right_descent,
    omega_elements,
    omega_factorize,
    reduced_word,
    simple_reflections,
    wid,
)

from conftest import random_elements


def _padd(p, q, k=0, m=1):
    """p + m v^k q."""
    out = dict(p.coeffs)
    for e, c in q.coeffs.items():
        out[e + k] = out.get(e + k, 0) + m * c
    return LaurentPoly(out)


def _pmul(p, q):
    out = {}
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly(out)


_ZERO = LaurentPoly()


def _ref_mult_by_simple(a, s):
    out = {}
    for x, p in a.terms.items():
        xs = x.rmul(s)
        out[xs] = _padd(out.get(xs, _ZERO), p)
        if is_right_descent(x, s):
            out[x] = _padd(_padd(out.get(x, _ZERO), p, -1), p, 1, -1)
    return HeckeElt(a.datum, out)


def _ref_mult(a, b):
    refls = simple_reflections(a.datum, conj_search=False)
    out = {}
    for w, p in b.terms.items():
        om, u = omega_factorize(w)
        cur = HeckeElt(a.datum, {x * om: q for x, q in a.terms.items()})
        for i in reduced_word(u):
            cur = _ref_mult_by_simple(cur, refls[i])
        for x, q in cur.terms.items():
            out[x] = _padd(out.get(x, _ZERO), _pmul(q, p))
    return HeckeElt(a.datum, out)


def _ref_canonical_basis(w, cache):
    if w in cache:
        return cache[w]
    datum = w.datum
    om, u = omega_factorize(w)
    if not om.is_identity():
        base = _ref_canonical_basis(u, cache)
        out = HeckeElt(datum, {om * x: p for x, p in base.terms.items()})
    elif u.length == 0:
        out = HeckeElt(datum, {u: ONE})
    else:
        s = simple_reflections(datum, conj_search=False)[reduced_word(u)[0]]
        b_uprime = _ref_canonical_basis(u.lmul(s), cache)
        terms = {}
        for x, p in b_uprime.terms.items():
            sx = x.lmul(s)
            terms[sx] = _padd(terms.get(sx, _ZERO), p)
            k = -1 if x.left_descents()[s.index] else 1
            terms[x] = _padd(terms.get(x, _ZERO), p, k)
        for z in list(terms):
            mu = b_uprime.coeff(z).coeff(1)
            if z != u and mu and z.left_descents()[s.index]:
                for y, p in _ref_canonical_basis(z, cache).terms.items():
                    terms[y] = _padd(terms.get(y, _ZERO), p, 0, -mu)
        out = HeckeElt(datum, terms)
    cache[w] = out
    return out


@pytest.mark.parametrize("name,max_len", (("B2-sc", 5), ("G2-sc", 5),
                                          ("GL3", 4), ("A1-adj", 6)))
def test_canonical_basis_matches_reference(name, max_len):
    datum = build_root_datum(name)
    ref = {}
    # Omega up to bound 1: 7 elements for GL3, 2 for B2-sc, e alone else
    omegas = omega_elements(datum, bound=1)
    for w in (om * u for u in enumerate_elements(datum, max_len)
              for om in omegas):
        got = canonical_basis(w)
        assert got == _ref_canonical_basis(w, ref), (name, w)
        assert all(p for p in got.terms.values())
        assert all(all(p.coeffs.values()) and all(
            type(e) is int and type(c) is int for e, c in p.coeffs.items())
            for p in got.terms.values())


def _random_elt(datum, rng, elements):
    terms = {}
    for x in rng.sample(elements, rng.randrange(1, 4)):
        terms[x] = LaurentPoly({rng.randrange(-3, 4): rng.choice((-2, -1, 1, 3))
                                for _ in range(rng.randrange(1, 3))})
    return HeckeElt(datum, terms)


@pytest.mark.parametrize("name", ("GL2", "GL3", "B2-sc", "G2-sc"))
def test_mult_matches_reference(name):
    datum = build_root_datum(name)
    rng = random.Random(29)
    elements = random_elements(datum, 12, seed=31, max_word=6)
    for _ in range(12):
        a = _random_elt(datum, rng, elements)
        b = _random_elt(datum, rng, elements)
        assert mult(a, b) == _ref_mult(a, b), (name, a, b)
    for x in elements[:4]:
        b = canonical_basis(x)
        assert mult(b, b) == _ref_mult(b, b), (name, x)
    e = wid(datum)
    v_minus = LaurentPoly({-1: 1, 1: -1})
    for s in simple_reflections(datum, conj_search=False):
        hs = unit(datum, s.as_element)
        assert mult(hs, hs) == HeckeElt(datum, {e: ONE, s.as_element: v_minus})
        b_s = HeckeElt(datum, {s.as_element: ONE, e: V})
        assert mult(b_s, b_s) == b_s.scale(LaurentPoly({1: 1, -1: 1}))
        # a product that cancels to zero has no terms at all
        assert not mult(b_s, HeckeElt(datum, {s.as_element: ONE,
                                              e: LaurentPoly({-1: -1})}))


def test_cached_elements_are_never_mutated():
    datum = build_root_datum("B2-sc")
    for w in enumerate_elements(datum, 4):
        canonical_basis(w)
    snapshot = {w: (b, b.to_json()) for w, b in _KL_CACHE.items()}
    for w in enumerate_elements(datum, 7):
        b = canonical_basis(w)
        if w.length <= 4:
            continue
        # arithmetic that reads cached elements without copying them
        mult(b, canonical_basis(wid(datum)))
        bar(b)
        pairing(b, b)
        b.scale(V)
        b - b
    for w, (b, doc) in snapshot.items():
        assert _KL_CACHE[w] is b
        assert b.to_json() == doc, w
