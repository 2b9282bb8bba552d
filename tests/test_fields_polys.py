import random
from fractions import Fraction

import pytest

from affkl.errors import SolverError
from affkl.fields import PrimeField, Rationals, field_for
from affkl.polys import PolyRing


def test_prime_field():
    f = PrimeField(5)
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(2) == 3
    assert f.neg(2) == 3
    assert f.parse(f.to_str(4)) == 4


def test_rationals_canonical_form():
    """An integral rational is an int, only a non-integral one a Fraction."""
    q = Rationals()
    assert type(q.zero) is int and type(q.one) is int
    assert type(q.from_int(5)) is int
    inv = q.inv(-1)
    assert type(inv) is int and inv == -1
    assert q.inv(3) == Fraction(1, 3) and type(q.inv(3)) is Fraction
    assert type(q.inv(Fraction(1, 4))) is int and q.inv(Fraction(1, 4)) == 4
    one = q.mul(Fraction(1, 2), 2)
    assert type(one) is int and one == 1
    assert type(q.add(Fraction(1, 3), Fraction(2, 3))) is int
    assert type(q.sub(Fraction(1, 3), Fraction(1, 3))) is int
    assert type(q.parse("4")) is int and q.parse("4") == 4
    assert q.parse("-2/6") == Fraction(-1, 3)
    # no operation on canonical values returns a float
    vals = [0, 1, -1, 3, Fraction(1, 3), Fraction(-5, 2)]
    for a in vals:
        for b in vals:
            for op in (q.add, q.sub, q.mul):
                c = op(a, b)
                assert type(c) is int or (type(c) is Fraction
                                          and c.denominator != 1), (op, a, b)
        if a:
            assert type(q.inv(a)) in (int, Fraction)
            assert q.mul(a, q.inv(a)) == 1
        assert type(q.neg(a)) is type(a)
    with pytest.raises(TypeError):
        q.inv(0.5)


def test_poly_ring_basic():
    ring = PolyRing(Rationals(), 2)
    x = ring.gen(0)
    y = ring.gen(1)
    f = ring.add(ring.mul(x, x), ring.smul(Fraction(2), ring.mul(x, y)))
    g = ring.mul(f, f)
    q = ring.exact_div(g, f)
    assert q == f
    with pytest.raises(SolverError):
        ring.exact_div(ring.add(g, ring.one), f)


def test_poly_homogeneous_degree():
    ring = PolyRing(PrimeField(3), 2)
    x, y = ring.gen(0), ring.gen(1)
    f = ring.add(x, y)
    assert ring.degree(f) == 2
    g = ring.mul(f, f)
    assert ring.degree(g) == 4
    with pytest.raises(SolverError):
        ring.degree(ring.add(f, ring.one))


def test_apply_linear():
    ring = PolyRing(Rationals(), 2)
    x, y = ring.gen(0), ring.gen(1)
    swap = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    f = ring.add(ring.mul(x, x), y)
    g = ring.apply_linear(f, swap)
    assert g == ring.add(ring.mul(y, y), x)
    # substitution is a ring homomorphism
    prod = ring.apply_linear(ring.mul(f, f), swap)
    assert prod == ring.mul(g, g)


def test_poly_str_round_trip():
    for field in (Rationals(), PrimeField(5), PrimeField(2)):
        ring = PolyRing(field, 3)
        f = ring.add(
            ring.mul(ring.gen(0), ring.gen(2)),
            ring.smul(field.from_int(2), ring.mul(ring.gen(1), ring.gen(1))),
        )
        f = ring.add(f, ring.const(3))
        assert ring.parse(ring.to_str(f)) == f
        assert ring.parse(ring.to_str(ring.zero)) == {}


def test_field_for():
    assert isinstance(field_for(0), Rationals)
    assert isinstance(field_for(7), PrimeField)
    assert field_for(7).char == 7


# -- the fused kernels against per-term references ---------------------------
#
# Each reference reduces after every term, as the kernels did before they
# accumulated unreduced coefficients: one field operation per product term.

FIELDS = (PrimeField(2), PrimeField(3), Rationals())


def _ref_add(fld, f, g):
    out = dict(f)
    for m, c in g.items():
        s = fld.add(out.get(m, fld.zero), c)
        if fld.is_zero(s):
            out.pop(m, None)
        else:
            out[m] = s
    return out


def _ref_mul(fld, f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out = _ref_add(fld, out, {m: fld.mul(c1, c2)})
    return out


def _ref_dot(fld, fs, gs):
    out = {}
    for f, g in zip(fs, gs):
        out = _ref_add(fld, out, _ref_mul(fld, f, g))
    return out


def _ref_apply_linear(ring, f, mat):
    fld = ring.field
    images = [ring.linear([mat[j][i] for j in range(ring.nvars)])
              for i in range(ring.nvars)]
    out = {}
    for m, c in f.items():
        term = ring.const(1)
        for i, e in enumerate(m):
            for _ in range(e):
                term = _ref_mul(fld, term, images[i])
        out = _ref_add(fld, out, {k: fld.mul(c, x) for k, x in term.items()})
    return out


def _ref_lincomb(fld, terms):
    out = {}
    for c, f in terms:
        out = _ref_add(fld, out, {m: fld.mul(c, x) for m, x in f.items()})
    return out


def _ref_str(f):
    if not f:
        return "0"
    parts = []
    for m in sorted(f, reverse=True):
        mono = "*".join(f"x{i}" if e == 1 else f"x{i}^{e}"
                        for i, e in enumerate(m) if e)
        parts.append(f"{f[m]}*{mono}" if mono else str(f[m]))
    return " + ".join(parts)


def _coeff(fld, rng):
    if fld.char:
        return rng.randrange(fld.char)
    return fld.reduce(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))))


def _rand_poly(ring, rng, deg):
    """Random polynomial with terms of exponent sum deg and deg + 1."""
    out = {}
    for _ in range(rng.randrange(5)):
        m = [0] * ring.nvars
        for _ in range(deg + rng.randrange(2)):
            m[rng.randrange(ring.nvars)] += 1
        c = _coeff(ring.field, rng)
        if c:
            out[tuple(m)] = c
    return out


def _assert_canonical(fld, f):
    for c in f.values():
        assert c != 0
        if fld.char:
            assert type(c) is int and 0 < c < fld.char
        else:
            assert type(c) is int or c.denominator != 1


def test_field_reduce():
    gf3 = PrimeField(3)
    assert [gf3.reduce(a) for a in (-4, 7, 9, 2)] == [2, 1, 0, 2]
    q = Rationals()
    assert type(q.reduce(Fraction(4, 2))) is int and q.reduce(Fraction(4, 2)) == 2
    assert type(q.reduce(Fraction(0))) is int and q.reduce(Fraction(0)) == 0
    assert q.reduce(Fraction(1, 3) + Fraction(1, 3)) == Fraction(2, 3)
    assert type(q.reduce(Fraction(1, 3) + Fraction(2, 3))) is int
    assert q.reduce(-7) == -7


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_kernels_match_per_term_reference(fld):
    rng = random.Random(fld.char + 11)
    ring = PolyRing(fld, 3)
    for _ in range(60):
        a, b, c, d = (_rand_poly(ring, rng, rng.randrange(3)) for _ in range(4))
        assert ring.mul(a, b) == _ref_mul(fld, a, b)
        fused = ring.mul_sub(a, b, c, d)
        assert fused == _ref_add(fld, _ref_mul(fld, a, b),
                                 ring.neg(_ref_mul(fld, c, d)))
        _assert_canonical(fld, fused)
        mat = tuple(tuple(_coeff(fld, rng) for _ in range(3)) for _ in range(3))
        assert ring.apply_linear(a, mat) == _ref_apply_linear(ring, a, mat)
    for n, k, m in ((2, 3, 2), (3, 1, 4), (1, 4, 1), (2, 0, 0)):
        a = [[_rand_poly(ring, rng, 1) for _ in range(k)] for _ in range(n)]
        b = [[_rand_poly(ring, rng, 1) for _ in range(m)] for _ in range(k)]
        v = [row[0] for row in b] if m else [{} for _ in range(k)]
        ref = [[_ref_dot(fld, row, [b[t][j] for t in range(k)])
                for j in range(m)] for row in a]
        assert ring.mat_mul(a, b) == ref
        assert ring.mat_vec(a, v) == [_ref_dot(fld, row, v) for row in a]
    # the inputs the shortcuts take: zero polynomials and a lone term of
    # coefficient one in lincomb, one-term polynomials under a permutation
    # and under a non-monomial matrix, and to_str's kept term texts
    one, zero = fld.one, fld.zero
    perm = tuple(tuple(one if j == (i + 1) % 3 else zero for j in range(3))
                 for i in range(3))
    mixed = ((one, one, zero), (zero, one, zero), (zero, one, one))
    for _ in range(60):
        f, g = (_rand_poly(ring, rng, rng.randrange(3)) for _ in range(2))
        c = _coeff(fld, rng)
        for terms in ([(c, {}), (one, f)], [(one, f)], [(one, f), (c, {})],
                      [(c, f), (one, {}), (c, g)], [(one, {})], []):
            assert ring.lincomb(terms) == _ref_lincomb(fld, terms)
            _assert_canonical(fld, ring.lincomb(terms))
        if f:
            assert ring.lincomb([(zero, {}), (one, f)]) is f
        mono = tuple(rng.randrange(3) for _ in range(3))
        for term in ({mono: one}, {mono: c} if c else {}):
            for mat in (perm, mixed):
                assert (ring.apply_linear(term, mat)
                        == _ref_apply_linear(ring, term, mat))
        for h in (f, g, {mono: one}):
            assert ring.to_str(h) == ring.to_str(h) == _ref_str(h)
            assert ring.parse(ring.to_str(h)) == h


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_kernels_drop_cancelled_terms(fld):
    ring = PolyRing(fld, 2)
    x, y = ring.gen(0), ring.gen(1)
    minus_one = fld.from_int(-1)
    s = ring.add(x, y)
    d = ring.add(x, ring.smul(minus_one, y))
    # (x + y)(x - y): the two xy terms cancel
    assert (1, 1) not in ring.mul(s, d)
    assert ring.mul(s, d) == _ref_mul(fld, s, d)
    assert ring.mul_sub(s, d, d, s) == {}
    assert ring.dot([s, d], [d, ring.smul(minus_one, s)]) == {}
    assert ring.lincomb([(fld.one, s), (minus_one, s)]) == {}
    assert ring.mat_vec([[s, d]], [d, ring.smul(minus_one, s)]) == [{}]
    # apply_linear: x -> x - y, y -> x - y sends x - y to 0
    mat = ((fld.one, fld.one), (minus_one, minus_one))
    assert ring.apply_linear(d, mat) == {}
    if fld.char == 2:
        assert ring.mul(s, s) == {(2, 0): 1, (0, 2): 1}


def test_fractions_summing_to_integers_come_back_as_int():
    q = Rationals()
    ring = PolyRing(q, 2)
    half, third = Fraction(1, 2), Fraction(1, 3)
    x, y = ring.gen(0), ring.gen(1)
    f = ring.add(ring.smul(half, x), ring.smul(half, y))
    checks = [
        (ring.mul(f, ring.add(x, y)), (1, 1)),
        (ring.mul_sub(f, x, ring.smul(half, y), ring.neg(x)), (1, 1)),
        (ring.dot([ring.smul(third, x), ring.smul(2 * third, x)],
                  [ring.one, ring.one]), (1, 0)),
        (ring.lincomb([(third, x), (2 * third, x)]), (1, 0)),
        (ring.mat_mul([[ring.smul(third, x), ring.smul(2 * third, y)]],
                      [[y], [x]])[0][0], (1, 1)),
        (ring.mat_vec([[ring.smul(third, x), ring.smul(2 * third, y)]],
                      [y, x])[0], (1, 1)),
        # x -> (x + y)/2, y -> (x - y)/2 sends 2x to x + y
        (ring.apply_linear(ring.smul(2, x), ((half, half), (half, -half))),
         (1, 0)),
    ]
    for poly, mono in checks:
        assert poly[mono] == 1 and type(poly[mono]) is int, poly
        _assert_canonical(q, poly)
