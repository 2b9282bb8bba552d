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
